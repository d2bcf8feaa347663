//! Regularized incomplete beta function.
//!
//! `I_x(a, b)` evaluated with the modified Lentz continued-fraction algorithm
//! (Numerical Recipes §6.4). This is the workhorse behind exact binomial
//! tails: `P(X ≥ k) = I_p(k, n − k + 1)` for `X ~ Binomial(n, p)`.

use crate::gamma::ln_gamma;
use mrcc_common::float::exactly;
use mrcc_common::num::len_to_f64;

const MAX_ITER: usize = 300;
const EPS: f64 = 3.0e-14;
const FPMIN: f64 = 1.0e-300;

/// Continued-fraction kernel for the incomplete beta function.
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = len_to_f64(m);
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return h;
        }
    }
    // Convergence is geometric for the arguments this workspace produces;
    // reaching here means pathological inputs — return the best estimate.
    h
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0`,
/// `x ∈ [0, 1]`.
///
/// # Panics
/// Panics on out-of-domain arguments.
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "inc_beta requires a,b > 0 (a={a}, b={b})"
    );
    assert!(
        (0.0..=1.0).contains(&x),
        "inc_beta requires x in [0,1], got {x}"
    );
    if exactly(x, 0.0) {
        return 0.0;
    }
    if exactly(x, 1.0) {
        return 1.0;
    }
    let ln_bt = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let bt = ln_bt.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        assert!(exactly(inc_beta(2.0, 3.0, 0.0), 0.0));
        assert!(exactly(inc_beta(2.0, 3.0, 1.0), 1.0));
    }

    #[test]
    fn uniform_case_is_identity() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry() {
        // I_x(a, b) = 1 − I_{1−x}(b, a).
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (10.0, 3.0, 0.7), (0.5, 0.5, 0.2)] {
            let lhs = inc_beta(a, b, x);
            let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn closed_form_small_integer_cases() {
        // I_x(1, b) = 1 − (1−x)^b.
        let x: f64 = 0.37;
        let b = 4.0;
        let want = 1.0 - (1.0f64 - x).powf(b);
        assert!((inc_beta(1.0, b, x) - want).abs() < 1e-12);
        // I_x(a, 1) = x^a.
        let a = 3.0;
        assert!((inc_beta(a, 1.0, x) - x.powf(a)).abs() < 1e-12);
    }

    #[test]
    fn reference_values() {
        // I_0.4(2,3): CDF of Beta(2,3) = 12∫₀ˣ t(1−t)² dt = 6x²−8x³+3x⁴.
        let x: f64 = 0.4;
        let want = 6.0 * x.powi(2) - 8.0 * x.powi(3) + 3.0 * x.powi(4);
        assert!((inc_beta(2.0, 3.0, x) - want).abs() < 1e-12);
        // Symmetric case pins the median exactly.
        assert!((inc_beta(5.0, 5.0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matches_binomial_tail_identity_at_scale() {
        // I_p(k, n−k+1) = P(X ≥ k) for X ~ Binomial(n, p); check against a
        // direct log-space pmf summation as an independent path.
        use crate::gamma::ln_choose;
        let (n, p, k) = (99u64, 0.2f64, 20u64);
        let direct: f64 = (k..=n)
            .map(|i| (ln_choose(n, i) + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp())
            .sum();
        let via_beta = inc_beta(k as f64, (n - k + 1) as f64, p);
        assert!((direct - via_beta).abs() < 1e-10, "{direct} vs {via_beta}");
    }

    #[test]
    fn monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 / 100.0;
            let v = inc_beta(3.0, 7.0, x);
            assert!(v >= prev, "not monotone at x={x}");
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "x in [0,1]")]
    fn rejects_bad_x() {
        inc_beta(1.0, 1.0, 1.5);
    }
}
