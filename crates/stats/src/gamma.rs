//! Log-gamma and log-combinatorics.
//!
//! The Lanczos approximation (g = 7, 9 coefficients) gives `ln Γ(x)` with
//! ~15 significant digits over the positive reals — plenty for the binomial
//! and Poisson tails built on top of it.

use mrcc_common::num::{count_to_f64, len_to_f64};

/// Lanczos coefficients for g = 7.
const LANCZOS_G: f64 = 7.0;
// The trailing digits matter at the 1e-15 accuracy the tests pin down.
#[expect(clippy::excessive_precision, reason = "full published precision")]
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Natural log of the gamma function for `x > 0`.
///
/// # Panics
/// Panics when `x <= 0` (callers in this workspace only evaluate positive
/// arguments; the reflection branch is intentionally unimplemented).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps precision near zero:
        // Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + len_to_f64(i));
    }
    let t = x + LANCZOS_G + 0.5;
    LN_SQRT_2PI + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(n!)`, exact for small `n` via a table, Lanczos above.
pub fn ln_factorial(n: u64) -> f64 {
    // Cache the first values; everything the clustering stack computes with
    // small counts stays exact this way.
    const TABLE_LEN: usize = 128;
    static TABLE: std::sync::OnceLock<[f64; TABLE_LEN]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; TABLE_LEN];
        let mut acc = 0.0f64;
        for (i, slot) in t.iter_mut().enumerate() {
            if i > 0 {
                acc += len_to_f64(i).ln();
            }
            *slot = acc;
        }
        t
    });
    match usize::try_from(n) {
        Ok(i) if i < TABLE_LEN => table[i],
        _ => ln_gamma(count_to_f64(n) + 1.0),
    }
}

/// `ln C(n, k)`; zero when `k == 0` or `k == n`.
///
/// # Panics
/// Panics when `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose: k={k} > n={n}");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    #[test]
    fn gamma_matches_factorials() {
        // Γ(n+1) = n!
        let facts: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let got = ln_gamma(n as f64 + 1.0);
            assert!((got - f.ln()).abs() < 1e-12, "n={n}: {got} vs {}", f.ln());
        }
    }

    #[test]
    fn gamma_half() {
        // Γ(1/2) = sqrt(π)
        let got = ln_gamma(0.5);
        let want = 0.5 * std::f64::consts::PI.ln();
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn gamma_large_argument() {
        // Stirling series check at x = 1000.5:
        // lnΓ(x) ≈ (x−1/2)ln x − x + ln(2π)/2 + 1/(12x).
        let x = 1000.5f64;
        let want =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x);
        let got = ln_gamma(x);
        assert!((got - want).abs() / want < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn factorial_table_and_tail_agree() {
        // The table/Lanczos boundary should be seamless.
        let a = ln_factorial(127);
        let b = ln_gamma(128.0);
        assert!((a - b).abs() < 1e-9);
        let big = ln_factorial(100_000);
        assert!(big.is_finite() && big > 0.0);
    }

    #[test]
    fn choose_small_values_exact() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 5) - 252f64.ln()).abs() < 1e-12);
        assert!(exactly(ln_choose(7, 0), 0.0));
        assert!(exactly(ln_choose(7, 7), 0.0));
    }

    #[test]
    #[should_panic(expected = "k=3 > n=2")]
    fn choose_rejects_k_above_n() {
        ln_choose(2, 3);
    }

    #[test]
    fn reflection_region() {
        // Γ(0.25) ≈ 3.6256099082...
        let got = ln_gamma(0.25);
        assert!((got - 3.625_609_908_221_908f64.ln()).abs() < 1e-10);
    }
}
