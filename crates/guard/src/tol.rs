//! Tolerance-aware float comparisons for solver code.
//!
//! The workspace's throughput numbers come out of iterative solvers (the
//! simplex, the Garg–Könemann FPTAS) whose results are only meaningful to
//! within a residual tolerance; the paper's own comparisons (the Theorem-2
//! gap, the Fig. 5 estimator columns) are tolerance comparisons, not
//! bit-equality. Exact `==`/`!=` against floats in solver code is therefore
//! almost always a bug, and clippy's `float_cmp` lint, on in every solver
//! crate root, rejects it outside comparisons with zero. These
//! helpers are the sanctioned replacement: every comparison names its
//! tolerance, and the degenerate cases (NaN, infinities) are pinned down by
//! tests rather than left to IEEE ordering accidents.

/// Default absolute tolerance for solver-level float comparisons. Matches
/// the simplex's pivot epsilon; callers with calibrated residuals (e.g.
/// certificate checks) should pass their own.
pub const DEFAULT_ABS_TOL: f64 = 1e-9;

/// True when `a` and `b` differ by at most `tol` in absolute terms.
/// NaN compares unequal to everything (both operands NaN is still false),
/// and equal infinities compare equal.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        // Covers equal infinities, which would otherwise produce NaN below.
        return true;
    }
    (a - b).abs() <= tol
}

/// True when `v` is within `tol` of zero. NaN is never approximately zero.
#[inline]
pub fn approx_zero(v: f64, tol: f64) -> bool {
    v.abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.0 + 1e-6, 1e-9));
        assert!(approx_eq(0.0, -0.0, 0.0));
    }

    #[test]
    fn nan_never_equal() {
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-9));
        assert!(!approx_eq(f64::NAN, 0.0, 1e-9));
        assert!(!approx_zero(f64::NAN, 1e-9));
    }

    #[test]
    fn infinities() {
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 1e-9));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY, 1e-9));
        assert!(!approx_zero(f64::INFINITY, 1e-9));
    }

    #[test]
    fn zero_within_tolerance() {
        assert!(approx_zero(5e-10, DEFAULT_ABS_TOL));
        assert!(!approx_zero(5e-9, DEFAULT_ABS_TOL));
    }
}
