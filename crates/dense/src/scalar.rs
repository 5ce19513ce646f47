//! Scalar element types for dense kernels.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar usable in the dense kernels.
///
/// Implemented for `f64`, the one element type of the distributed
/// algorithms (one `f64` = one machine word in the cost accounting of
/// `syrk-machine`). The kernels stay generic over it so their signatures
/// say which operations they rely on.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// The kernel dispatch for this scalar: tile geometry plus kernel
    /// function, resolved from the process ISA selection
    /// ([`crate::isa::dispatched_isa`]). Drivers call this once per
    /// kernel invocation so one call never mixes ISAs.
    fn dispatch() -> crate::microkernel::Dispatch<Self>;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion from `f64` (used for test data generation).
    fn from_f64(x: f64) -> Self;
    /// Lossy conversion to `f64` (used for error norms).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused `self * a + b` (may or may not be fused in hardware).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Machine epsilon of the type.
    fn epsilon() -> Self;
}

impl Scalar for f64 {
    #[inline]
    fn dispatch() -> crate::microkernel::Dispatch<Self> {
        crate::microkernel::dispatch_f64()
    }
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn epsilon() -> Self {
        f64::EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_ops<T: Scalar>() -> T {
        let two = T::one() + T::one();
        let m = two * two - T::one(); // 3
        m.mul_add(two, T::one()) // 7
    }

    #[test]
    fn scalar_ops_f64() {
        assert_eq!(generic_ops::<f64>(), 7.0);
        assert_eq!((-3.5f64).abs(), 3.5);
        assert_eq!(f64::from_f64(2.5), 2.5);
    }
}
