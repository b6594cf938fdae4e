//! The scalar abstraction that lets one simplex implementation run in fast
//! `f64` arithmetic or exact [`Rational`] arithmetic.

use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::problem::Problem;
use crate::revised::{self, LpScratch};
use crate::simplex::{solve_dense, BoundOverrides, LpError, LpOutcome};
use crate::Rational;

/// A field scalar usable by the simplex kernel.
///
/// Implemented by `f64` (fast, tolerance-based comparisons) and by
/// [`Rational`] (exact). The trait is sealed: the simplex kernel's
/// correctness argument only covers these two instantiations.
pub trait Scalar:
    Clone
    + PartialOrd
    + Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + private::Sealed
{
    /// Whether arithmetic in this scalar is exact (no tolerances needed).
    const EXACT: bool;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Exact conversion from problem data.
    fn from_rational(r: Rational) -> Self;
    /// Whether `|self|` is within the zero tolerance.
    fn is_zero_tol(&self) -> bool;
    /// Whether `self` exceeds the positive tolerance.
    fn is_pos_tol(&self) -> bool;
    /// Whether `self` is below the negative tolerance.
    fn is_neg_tol(&self) -> bool {
        (-self.clone()).is_pos_tol()
    }
    /// Lossy view as `f64` (for diagnostics and branching decisions).
    fn to_f64(&self) -> f64;

    /// Dispatches to this instantiation's LP solver: the sparse revised
    /// simplex for `f64`, the exact dense tableau for [`Rational`]. Not
    /// part of the supported API surface — call
    /// [`solve_lp`](crate::solve_lp) instead.
    #[doc(hidden)]
    fn solve(problem: &Problem, bounds: &BoundOverrides) -> Result<LpOutcome<Self>, LpError>
    where
        Self: Sized;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for crate::Rational {}
}

/// Comparison tolerance for the `f64` instantiation: values within this of
/// zero are treated as zero by [`Scalar::is_zero_tol`], and reduced costs /
/// bound comparisons use it as the strict-inequality margin.
pub(crate) const F64_TOL: f64 = 1e-9;

/// Primal feasibility tolerance of the `f64` solvers: a basic value may
/// stray this far outside its bounds (and a phase-1 infeasibility sum this
/// far above zero) before it counts as a real violation. Also the clamp
/// threshold for the numerical dust the dense tableau's pivots leave on
/// right-hand sides — the former inline `1e-7` magic number.
pub(crate) const F64_FEAS_TOL: f64 = 1e-7;

/// Minimum magnitude an `f64` pivot element may have: ratio tests and the
/// basis factorization reject pivots smaller than this as numerically
/// unreliable.
pub(crate) const F64_PIVOT_TOL: f64 = 1e-8;

/// Distance from the nearest integer at which an `f64` relaxation value
/// counts as fractional in branch-and-bound.
pub(crate) const DEFAULT_INTEGRALITY_TOL: f64 = 1e-6;

impl Scalar for f64 {
    const EXACT: bool = false;
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_rational(r: Rational) -> Self {
        r.to_f64()
    }
    fn is_zero_tol(&self) -> bool {
        self.abs() <= F64_TOL
    }
    fn is_pos_tol(&self) -> bool {
        *self > F64_TOL
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn solve(problem: &Problem, bounds: &BoundOverrides) -> Result<LpOutcome<f64>, LpError> {
        revised::solve_f64(problem, bounds, &mut LpScratch::new(), None).map(|(out, _)| out)
    }
}

impl Scalar for Rational {
    const EXACT: bool = true;
    fn zero() -> Self {
        Rational::ZERO
    }
    fn one() -> Self {
        Rational::ONE
    }
    fn from_rational(r: Rational) -> Self {
        r
    }
    fn is_zero_tol(&self) -> bool {
        self.is_zero()
    }
    fn is_pos_tol(&self) -> bool {
        self.is_positive()
    }
    fn to_f64(&self) -> f64 {
        Rational::to_f64(*self)
    }
    fn solve(problem: &Problem, bounds: &BoundOverrides) -> Result<LpOutcome<Rational>, LpError> {
        solve_dense::<Rational>(problem, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_tolerances() {
        assert!(0.0f64.is_zero_tol());
        assert!((F64_TOL / 2.0).is_zero_tol());
        assert!(1.0f64.is_pos_tol());
        assert!((-1.0f64).is_neg_tol());
        assert!(!(F64_TOL / 2.0).is_pos_tol());
    }

    #[test]
    fn rational_is_exact() {
        assert!(Rational::ZERO.is_zero_tol());
        assert!(!Rational::new(1, 1_000_000_000_000).is_zero_tol());
        assert!(Rational::new(1, 1_000_000_000_000).is_pos_tol());
    }
}
