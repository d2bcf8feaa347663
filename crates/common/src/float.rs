//! Approved floating-point comparison helpers.
//!
//! The repository forbids raw `==`/`!=` on floats outside [`exactly`] (clippy's
//! `float_cmp`, denied workspace-wide). These helpers spell out which
//! notion of equality a call site means: exact bit-for-bit equality against
//! a sentinel value, or closeness within a tolerance.

/// Default absolute tolerance for [`approx_eq`]: loose enough to absorb a
/// few ulps of drift through log-space accumulations, tight enough that
/// distinct grid coordinates (multiples of `2^-H`, `H <= 40`) never alias.
pub const DEFAULT_EPS: f64 = 1e-12;

/// `true` when `a` and `b` are within `eps` absolutely, or within `eps`
/// relative to the larger magnitude (covers both tiny and huge operands).
#[must_use]
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= eps {
        return true;
    }
    diff <= eps * a.abs().max(b.abs())
}

/// [`approx_eq_eps`] with [`DEFAULT_EPS`].
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, DEFAULT_EPS)
}

/// `true` when `x` is within [`DEFAULT_EPS`] of zero.
#[must_use]
pub fn near_zero(x: f64) -> bool {
    x.abs() <= DEFAULT_EPS
}

/// Exact equality against a sentinel/boundary value (`0.0`, `1.0`, …).
///
/// Probability parameters and normalized coordinates use exact boundary
/// values deliberately (e.g. `Binomial::new(n, 0.0)`); this helper exists so
/// such comparisons are named rather than written as raw `==`.
#[must_use]
#[expect(clippy::float_cmp, reason = "the one approved exact comparison")]
pub fn exactly(x: f64, sentinel: f64) -> bool {
    x == sentinel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-13));
        assert!(!approx_eq(1.0, 1.0 + 1e-9));
        // Relative branch: 1e9 vs 1e9*(1+1e-13).
        assert!(approx_eq(1.0e9, 1.0e9 * (1.0 + 1e-13)));
        assert!(!approx_eq(1.0e9, 1.0e9 + 1.0));
    }

    #[test]
    fn near_zero_and_exactly() {
        assert!(near_zero(0.0));
        assert!(near_zero(-1e-13));
        assert!(!near_zero(1e-6));
        assert!(exactly(0.0, 0.0));
        assert!(exactly(-0.0, 0.0));
        assert!(!exactly(f64::NAN, f64::NAN));
    }
}
