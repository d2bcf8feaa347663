//! The binomial distribution and the paper's critical-value computation.
//!
//! MrCC's β-cluster confirmation (Section III-B) tests, per axis `e_j`,
//! whether the centre region's point count `cP_j` is significantly larger
//! than expected when the `nP_j` neighbourhood points are spread uniformly
//! over six consecutive equal-size regions: under the null hypothesis
//! `cP_j ~ Binomial(nP_j, 1/6)`. The one-sided critical value `θ_j^α` is the
//! smallest count whose upper tail probability does not exceed the
//! significance level `α`; the test rejects (a β-cluster is present) when
//! `cP_j ≥ θ_j^α`.

use crate::beta::inc_beta;
use crate::gamma::ln_choose;
use mrcc_common::float::exactly;
use mrcc_common::num::count_to_f64;

/// A binomial distribution `Binomial(n, p)`.
///
/// ```
/// use mrcc_stats::Binomial;
///
/// // The paper's null model: 60 points over six regions.
/// let b = Binomial::new(60, 1.0 / 6.0);
/// assert!((b.mean() - 10.0).abs() < 1e-12);
/// // Critical value at α = 1e-10: counts this high reject uniformity.
/// let theta = b.critical_value(1e-10);
/// assert!(b.sf(theta) <= 1e-10);
/// assert!(theta > 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a Binomial is a value describing a distribution; dropping it does nothing"]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        Binomial { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `n·p`.
    pub fn mean(&self) -> f64 {
        count_to_f64(self.n) * self.p
    }

    /// Probability mass `P(X = k)` (log-space evaluation, no overflow).
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if exactly(self.p, 0.0) {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if exactly(self.p, 1.0) {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        let ln = ln_choose(self.n, k)
            + count_to_f64(k) * self.p.ln()
            + count_to_f64(self.n - k) * (1.0 - self.p).ln();
        ln.exp()
    }

    /// Survival function `P(X ≥ k)`, exact via the incomplete beta identity
    /// `P(X ≥ k) = I_p(k, n − k + 1)` for `1 ≤ k ≤ n`.
    pub fn sf(&self, k: u64) -> f64 {
        if k == 0 {
            return 1.0;
        }
        if k > self.n {
            return 0.0;
        }
        if exactly(self.p, 0.0) {
            return 0.0;
        }
        if exactly(self.p, 1.0) {
            return 1.0;
        }
        inc_beta(count_to_f64(k), count_to_f64(self.n - k + 1), self.p)
    }

    /// Cumulative distribution `P(X ≤ k)`.
    pub fn cdf(&self, k: u64) -> f64 {
        1.0 - self.sf(k + 1)
    }

    /// One-sided upper critical value: the smallest `t` with `P(X ≥ t) ≤ α`.
    ///
    /// The rejection region of the paper's test is `{cP_j ≥ t}`; because the
    /// distribution is discrete the attained size is the largest tail
    /// probability not exceeding `α`. Returns `n + 1` when even the full-mass
    /// tail `P(X ≥ n) = p^n` exceeds `α` (no count can be significant).
    ///
    /// # Panics
    /// Panics unless `0 < α < 1`.
    pub fn critical_value(&self, alpha: f64) -> u64 {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        // sf is nonincreasing in t; binary search the boundary.
        let mut lo = 0u64; // invariant: sf(lo) > alpha
        let mut hi = self.n + 1; // invariant: sf(hi) <= alpha (sf(n+1) = 0)
        if self.sf(lo) <= alpha {
            return 0;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.sf(mid) <= alpha {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// Convenience wrapper: `P(X ≥ k)` for `X ~ Binomial(n, p)`.
pub fn binomial_sf(n: u64, p: f64, k: u64) -> f64 {
    Binomial::new(n, p).sf(k)
}

/// Convenience wrapper for [`Binomial::critical_value`].
pub fn binomial_critical_value(n: u64, p: f64, alpha: f64) -> u64 {
    Binomial::new(n, p).critical_value(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_is_the_incomplete_beta_tail_at_an_exact_point() {
        // Binomial(3, 1/6): P(X ≥ 2) = 3·(1/6)²·(5/6) + (1/6)³ = 16/216, and
        // I_p(2, 2) = 3p² − 2p³ = 16/216 at p = 1/6.
        let exact = 16.0 / 216.0;
        let p = 1.0 / 6.0;
        assert!((Binomial::new(3, p).sf(2) - exact).abs() < 1e-15);
        assert!((inc_beta(2.0, 2.0, p) - exact).abs() < 1e-15);
    }

    /// Direct summation reference for small n.
    fn sf_direct(n: u64, p: f64, k: u64) -> f64 {
        (k..=n).map(|i| Binomial::new(n, p).pmf(i)).sum()
    }

    #[test]
    fn pmf_sums_to_one() {
        let b = Binomial::new(20, 1.0 / 6.0);
        let total: f64 = (0..=20).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sf_matches_direct_summation() {
        for &n in &[1u64, 5, 17, 40] {
            for &p in &[0.1, 1.0 / 6.0, 0.5, 0.9] {
                for k in 0..=n {
                    let exact = sf_direct(n, p, k);
                    let fast = binomial_sf(n, p, k);
                    assert!(
                        (exact - fast).abs() < 1e-10,
                        "n={n} p={p} k={k}: {exact} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn sf_edge_cases() {
        let b = Binomial::new(10, 0.3);
        assert!(exactly(b.sf(0), 1.0));
        assert!(exactly(b.sf(11), 0.0));
        assert!(exactly(Binomial::new(10, 0.0).sf(1), 0.0));
        assert!(exactly(Binomial::new(10, 1.0).sf(10), 1.0));
        assert!(exactly(Binomial::new(0, 0.5).sf(0), 1.0));
        assert!(exactly(Binomial::new(0, 0.5).sf(1), 0.0));
    }

    #[test]
    fn cdf_complements_sf() {
        let b = Binomial::new(30, 1.0 / 6.0);
        for k in 0..30 {
            let s = b.cdf(k) + b.sf(k + 1);
            assert!((s - 1.0).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn critical_value_definition_holds() {
        // θ is the smallest t with sf(t) ≤ α.
        for &n in &[6u64, 30, 100, 5000] {
            let b = Binomial::new(n, 1.0 / 6.0);
            for &alpha in &[1e-2, 1e-5, 1e-10] {
                let t = b.critical_value(alpha);
                assert!(b.sf(t) <= alpha, "n={n} α={alpha}: sf({t})={}", b.sf(t));
                if t > 0 {
                    assert!(b.sf(t - 1) > alpha, "n={n} α={alpha}: t not minimal ({t})");
                }
            }
        }
    }

    #[test]
    fn critical_value_large_n_behaves_like_gaussian_tail() {
        // For n = 6000, p = 1/6: mean 1000, sd ≈ 28.87. The α = 1e-10 critical
        // value should be ≈ mean + 6.4·sd ≈ 1187.
        let t = binomial_critical_value(6000, 1.0 / 6.0, 1e-10);
        assert!((1150..1230).contains(&t), "t = {t}");
    }

    #[test]
    fn critical_value_small_n_saturates() {
        // With n = 3 and α = 1e-10 no count is significant: sf(3) = (1/6)^3.
        let t = binomial_critical_value(3, 1.0 / 6.0, 1e-10);
        assert_eq!(t, 4); // n + 1 → unreachable
                          // With a generous alpha the critical value drops.
        let t = binomial_critical_value(3, 1.0 / 6.0, 0.5);
        assert!(t <= 2);
    }

    #[test]
    fn tighter_alpha_raises_threshold() {
        let b = Binomial::new(600, 1.0 / 6.0);
        let t3 = b.critical_value(1e-3);
        let t10 = b.critical_value(1e-10);
        let t20 = b.critical_value(1e-20);
        assert!(t3 < t10 && t10 < t20, "{t3} {t10} {t20}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        binomial_critical_value(10, 0.5, 0.0);
    }
}
