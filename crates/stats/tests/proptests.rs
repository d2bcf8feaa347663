//! Property-based invariants of the statistics substrate.

use mrcc_common::float::exactly;
use mrcc_stats::beta::inc_beta;
use mrcc_stats::binomial::Binomial;
use mrcc_stats::gamma::{ln_choose, ln_factorial};
use mrcc_stats::gamma_inc::{gamma_p, gamma_q};
use mrcc_stats::mdl::mdl_cut;
use mrcc_stats::poisson::Poisson;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The binomial survival function falls from `sf(0) = 1` to
    /// `sf(n + 1) = 0`, nonincreasing and bounded in between, and
    /// complements the CDF: `cdf(k) + sf(k + 1) = 1`, with `pmf(k) ∈ [0, 1]`.
    /// The critical-value binary search relies on all of it.
    #[test]
    fn binomial_sf_monotone(n in 0u64..500, p in 0.0f64..=1.0) {
        let b = Binomial::new(n, p);
        prop_assert!(exactly(b.sf(0), 1.0), "sf(0) = {}", b.sf(0));
        prop_assert!(exactly(b.sf(n + 1), 0.0), "sf(n + 1) = {}", b.sf(n + 1));
        let mut prev = 1.0f64;
        for k in 0..=n + 1 {
            let s = b.sf(k);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "sf({k}) = {s}");
            prop_assert!(s <= prev + 1e-9, "sf not monotone at k={k}");
            prev = s;
        }
        for k in 0..=n {
            let total = b.cdf(k) + b.sf(k + 1);
            prop_assert!((total - 1.0).abs() < 1e-9, "cdf({k}) + sf({}) = {total}", k + 1);
            let mass = b.pmf(k);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&mass), "pmf({k}) = {mass}");
        }
    }

    /// The critical value is the *smallest* count with tail ≤ α, and the
    /// rejection region it defines has size ≤ α.
    #[test]
    fn critical_value_minimal(n in 1u64..2000, alpha_exp in 1i32..30) {
        let alpha = 10f64.powi(-alpha_exp);
        let b = Binomial::new(n, 1.0 / 6.0);
        let t = b.critical_value(alpha);
        prop_assert!(b.sf(t) <= alpha);
        if t > 0 {
            prop_assert!(b.sf(t - 1) > alpha);
        }
    }

    /// pmf sums to 1 (within fp error) for moderate n.
    #[test]
    fn binomial_pmf_normalized(n in 0u64..200, p in 0.01f64..0.99) {
        let b = Binomial::new(n, p);
        let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    /// Incomplete beta is within [0,1] and monotone in x.
    #[test]
    fn inc_beta_bounded_monotone(a in 0.1f64..50.0, b in 0.1f64..50.0) {
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let v = inc_beta(a, b, x);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
            prop_assert!(v + 1e-9 >= prev);
            prev = v;
        }
    }

    /// Regularized incomplete gammas are complementary.
    #[test]
    fn gamma_pq_complement(a in 0.1f64..100.0, x in 0.0f64..200.0) {
        let s = gamma_p(a, x) + gamma_q(a, x);
        prop_assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    /// Poisson sf at k=0 is 1 and decreases with k.
    #[test]
    fn poisson_sf_monotone(lambda in 0.01f64..500.0) {
        let d = Poisson::new(lambda);
        let mut prev = 1.0;
        for k in 0..60u64 {
            let s = d.sf(k);
            prop_assert!(s <= prev + 1e-9);
            prev = s;
        }
    }

    /// ln C(n,k) is symmetric and log-concave in k.
    #[test]
    fn choose_symmetry(n in 0u64..500) {
        for k in 0..=n {
            let a = ln_choose(n, k);
            let b = ln_choose(n, n - k);
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// ln(n!) satisfies the recurrence ln(n!) = ln((n−1)!) + ln n.
    #[test]
    fn factorial_recurrence(n in 1u64..5000) {
        let lhs = ln_factorial(n);
        let rhs = ln_factorial(n - 1) + (n as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }

    /// The MDL cut returns an index inside the slice whose value is the
    /// threshold, and its cost is minimal among all cuts.
    #[test]
    fn mdl_cut_is_optimal(mut values in proptest::collection::vec(0.0f64..100.0, 1..24)) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cut = mdl_cut(&values);
        prop_assert!(cut.cut < values.len());
        prop_assert!(exactly(cut.threshold, values[cut.cut]));
        // Recompute every cut cost with an independent implementation.
        let cost = |vals: &[f64]| -> f64 {
            if vals.is_empty() {
                return 0.0;
            }
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (1.0 + mean.abs()).log2()
                + vals.iter().map(|v| (1.0 + (v - mean).abs()).log2()).sum::<f64>()
        };
        for c in 0..values.len() {
            let total = cost(&values[..c]) + cost(&values[c..]);
            prop_assert!(cut.cost <= total + 1e-9, "cut {c} beats reported optimum");
        }
    }
}
