//! Regularized incomplete gamma functions.
//!
//! `P(a, x)` (lower) and `Q(a, x)` (upper) via the classic series /
//! continued-fraction split (Numerical Recipes §6.2). Poisson tails — used by
//! the P3C baseline's interval-support test — reduce to these.

use crate::gamma::ln_gamma;
use mrcc_common::float::exactly;
use mrcc_common::num::len_to_f64;

const MAX_ITER: usize = 500;
const EPS: f64 = 3.0e-14;
const FPMIN: f64 = 1.0e-300;

/// Series representation of `P(a, x)`, best for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    if exactly(x, 0.0) {
        return 0.0;
    }
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of `Q(a, x)`, best for `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -len_to_f64(i) * (len_to_f64(i) - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// # Panics
/// Panics when `a <= 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values() {
        assert!(exactly(gamma_p(3.0, 0.0), 0.0));
        assert!((gamma_q(3.0, 0.0) - 1.0).abs() < 1e-15);
        assert!(gamma_p(1.0, 700.0) > 1.0 - 1e-12);
    }

    #[test]
    fn exponential_special_case() {
        // P(1, x) = 1 − e^{−x}.
        for &x in &[0.1f64, 1.0, 2.5, 10.0] {
            let want = 1.0 - (-x).exp();
            assert!((gamma_p(1.0, x) - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn p_plus_q_is_one() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 5.0), (30.0, 30.0), (100.0, 80.0)] {
            let s = gamma_p(a, x) + gamma_q(a, x);
            assert!((s - 1.0).abs() < 1e-12, "a={a} x={x}: {s}");
        }
    }

    #[test]
    fn chi_square_reference() {
        // For chi-square with k dof, CDF(x) = P(k/2, x/2).
        // scipy.stats.chi2.cdf(3.84, 1) ≈ 0.94996.
        let got = gamma_p(0.5, 3.84 / 2.0);
        assert!((got - 0.949_96).abs() < 1e-4, "{got}");
        // chi2.cdf(11.07, 5) ≈ 0.95002
        let got = gamma_p(2.5, 11.07 / 2.0);
        assert!((got - 0.950_02).abs() < 1e-4, "{got}");
    }

    #[test]
    fn monotone_in_x() {
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let v = gamma_p(4.2, x);
            assert!(v >= prev);
            prev = v;
        }
    }
}
