//! Degenerate inputs through the facade: every dataset that passes
//! `Dataset` validation must fit (or fail with a typed error), never panic.
//!
//! Each property pins that these inputs fit today: all-duplicate points, a
//! single occupied cell, values at the top of `[0, 1)`, constant columns
//! and an axis spanning more than `f64::MAX` through `fit_normalizing`,
//! d = 1 and d = 64, H = 3 and H = 64, and one point.

use mrcc_repro::prelude::*;
use proptest::prelude::*;

/// The largest `f64` below 1: the top of the unit cube's half-open range.
const TOP: f64 = 1.0 - f64::EPSILON / 2.0;

/// Fits `ds` with `H` resolutions, checks the result covers every point and
/// returns its cluster count.
fn fits(ds: &Dataset, resolutions: usize) -> usize {
    let result = MrCC::new(MrCCConfig::with_params(1e-10, resolutions))
        .fit(ds)
        .unwrap_or_else(|e| panic!("{} × {}d, H = {resolutions}: {e}", ds.len(), ds.dims()));
    result.check_invariants();
    assert_eq!(result.clustering.labels().len(), ds.len());
    result.n_clusters()
}

/// `n` points in `d` axes from `value(i, j)`.
fn dataset(n: usize, d: usize, value: impl Fn(usize, usize) -> f64) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| value(i, j)).collect())
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// A cheap deterministic value in `[0, 1)` for point `i`, axis `j`.
fn hash01(seed: u64, i: usize, j: usize) -> f64 {
    let mut x = seed ^ ((i as u64) << 20) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every point identical: one cell at every level.
    #[test]
    fn all_duplicate_points(n in 1usize..400, d in 1usize..=8, v in 0.0f64..1.0) {
        prop_assert!(fits(&dataset(n, d, |_, _| v), 4) <= 1);
    }

    /// Distinct points that all fall into one cell of the finest level.
    #[test]
    fn one_occupied_cell(
        n in 2usize..400,
        d in 1usize..=8,
        cell in 0usize..8,
        seed in any::<u64>(),
    ) {
        let side = 1.0 / 8.0; // H = 4: the finest level has 2^3 cells per axis.
        let ds = dataset(n, d, |i, j| (cell as f64 + hash01(seed, i, j)) * side);
        fits(&ds, 4);
    }

    /// Coordinates at the largest value below 1, alone or among others.
    #[test]
    fn values_at_one_minus_epsilon(
        n in 1usize..400,
        d in 1usize..=8,
        share in 0usize..=4,
        seed in any::<u64>(),
    ) {
        let ds = dataset(n, d, |i, j| {
            if (i + j) % 4 < share { TOP } else { hash01(seed, i, j) }
        });
        prop_assert!(ds.is_unit_normalized());
        fits(&ds, 4);
        fits(&ds, 64);
    }

    /// Raw data with constant columns: `fit_normalizing` maps them to 0.
    #[test]
    fn constant_columns_fit_normalizing(
        n in 1usize..400,
        d in 1usize..=8,
        constant in -1e6f64..1e6,
        every in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let ds = dataset(n, d, |i, j| {
            if j % every == 0 { constant } else { 1e3 * hash01(seed, i, j) - 5e2 }
        });
        let result = MrCC::default().fit_normalizing(&ds).unwrap();
        prop_assert_eq!(result.clustering.labels().len(), n);
    }

    /// The extremes of the supported dimensionality and resolutions.
    #[test]
    fn extreme_d_and_h(
        n in 1usize..300,
        d_top in any::<bool>(),
        h_top in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let d = if d_top { 64 } else { 1 };
        let h = if h_top { 64 } else { 3 };
        fits(&dataset(n, d, |i, j| hash01(seed, i, j)), h);
    }

    /// A single point, at any position and dimensionality.
    #[test]
    fn one_point(d in 1usize..=64, h in 3usize..=64, seed in any::<u64>()) {
        prop_assert!(fits(&dataset(1, d, |i, j| hash01(seed, i, j)), h) <= 1);
    }
}

/// An axis spanning more than `f64::MAX` normalizes into `[0, 1)` in
/// order, and the raw rows fit through `fit_normalizing`.
#[test]
fn range_beyond_f64_max_fit_normalizing() {
    let raw = Dataset::from_rows(&[[-1e308], [1e308], [0.0]]).unwrap();
    let mut ds = raw.clone();
    ds.normalize_unit().unwrap();
    assert!(ds.is_unit_normalized());
    let v: Vec<f64> = ds.iter().map(|p| p[0]).collect();
    assert!(v[0] < v[2] && v[2] < v[1], "{v:?}");
    let result = MrCC::default().fit_normalizing(&raw).unwrap();
    result.check_invariants();
    assert_eq!(result.clustering.labels().len(), 3);
}
