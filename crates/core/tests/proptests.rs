//! Property-based invariants of the full MrCC pipeline.

use mrcc::{MrCC, MrCCConfig};
use mrcc_common::float::exactly;
use mrcc_common::{Dataset, NOISE};
use mrcc_datagen::{generate, SyntheticSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy over small synthetic workloads.
fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (3usize..=10, 1usize..=3, 0u64..1000, 0.0f64..0.3).prop_map(|(dims, clusters, seed, noise)| {
        SyntheticSpec::new(format!("prop-{seed}"), dims, 2_000, clusters, noise, seed)
    })
}

/// `ds` with its rows in `order`: row `i` of the copy is row `order[i]`.
fn permuted(ds: &Dataset, order: &[usize]) -> Dataset {
    let rows: Vec<&[f64]> = order.iter().map(|&i| ds.point(i)).collect();
    Dataset::from_rows(&rows).unwrap()
}

/// Fits `ds` and its rows in `order`. The β-clusters and correlation
/// clusters match by `Debug` text, which for an `f64` round-trips, and each
/// row keeps its label and soft memberships.
fn assert_row_order_invariant(ds: &Dataset, order: &[usize]) {
    let moved = permuted(ds, order);
    let (a, b) = (
        MrCC::default().fit(ds).unwrap(),
        MrCC::default().fit(&moved).unwrap(),
    );
    assert_eq!(
        format!("{:?}", b.beta_clusters),
        format!("{:?}", a.beta_clusters)
    );
    assert_eq!(format!("{:?}", b.clusters), format!("{:?}", a.clusters));
    let (labels_a, labels_b) = (a.clustering.labels(), b.clustering.labels());
    let (soft_a, soft_b) = (a.soft_memberships(ds), b.soft_memberships(&moved));
    for (i, &row) in order.iter().enumerate() {
        assert_eq!(labels_b[i], labels_a[row], "label of row {row}");
        assert_eq!(
            format!("{:?}", soft_b.memberships(i)),
            format!("{:?}", soft_a.memberships(row)),
            "soft memberships of row {row}"
        );
    }
}

/// A fixed case where breaking ties by each cell's smallest row index made
/// the fit depend on the row order: reversed, it gave 7 β-clusters, not 6.
#[test]
fn reversed_rows_give_the_same_fit() {
    let ds = generate(&SyntheticSpec::new("row-order", 8, 1_200, 3, 0.15, 2)).dataset;
    let order: Vec<usize> = (0..ds.len()).rev().collect();
    assert_row_order_invariant(&ds, &order);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fit depends on the set of points, not on the order of the rows:
    /// reversed or shuffled rows give the same β-clusters and clusters,
    /// and every row keeps its label and soft memberships.
    #[test]
    fn row_order_does_not_change_the_fit(
        (dims, points, clusters, seed) in (2usize..=10, 200usize..=2_000, 1usize..=3, 0u64..1000),
        shuffle in any::<bool>(),
    ) {
        let spec = SyntheticSpec::new("row-order", dims, points, clusters, 0.15, seed);
        let ds = generate(&spec).dataset;
        let mut order: Vec<usize> = (0..ds.len()).rev().collect();
        if shuffle {
            // Fisher–Yates.
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
        assert_row_order_invariant(&ds, &order);
    }

    /// The output is always a valid partition: every label is a cluster id
    /// or noise; cluster sizes sum with noise to η; reported sizes match.
    #[test]
    fn output_is_a_partition(spec in spec_strategy()) {
        let synth = generate(&spec);
        let result = MrCC::default().fit(&synth.dataset).unwrap();
        result.check_invariants();
        let labels = result.clustering.labels();
        prop_assert_eq!(labels.len(), synth.dataset.len());
        let k = result.clustering.len() as i32;
        for &l in &labels {
            prop_assert!(l == NOISE || (0..k).contains(&l));
        }
        let clustered: usize = result.clustering.clusters().iter().map(mrcc_common::SubspaceCluster::len).sum();
        prop_assert_eq!(clustered + result.clustering.noise().len(), labels.len());
        for (cluster, report) in result.clustering.clusters().iter().zip(&result.clusters) {
            prop_assert_eq!(cluster.len(), report.size);
        }
    }

    /// Fitting is deterministic.
    #[test]
    fn deterministic(spec in spec_strategy()) {
        let synth = generate(&spec);
        let a = MrCC::default().fit(&synth.dataset).unwrap();
        let b = MrCC::default().fit(&synth.dataset).unwrap();
        prop_assert_eq!(a.clustering.labels(), b.clustering.labels());
    }

    /// Every β-cluster is well-formed: non-empty relevant axes, bounds
    /// inside the unit cube, per-axis stats arrays of length d, and at
    /// least one significant axis.
    #[test]
    fn beta_clusters_well_formed(spec in spec_strategy()) {
        let synth = generate(&spec);
        let d = synth.dataset.dims();
        let result = MrCC::default().fit(&synth.dataset).unwrap();
        for beta in &result.beta_clusters {
            prop_assert!(!beta.axes.is_empty());
            prop_assert_eq!(beta.axis_stats.len(), d);
            prop_assert!(beta.axis_stats.iter().any(mrcc::beta::AxisStats::significant));
            for j in 0..d {
                prop_assert!(beta.bounds.lower(j) >= 0.0);
                prop_assert!(beta.bounds.upper(j) <= 1.0);
                prop_assert!(beta.bounds.lower(j) <= beta.bounds.upper(j));
                // Irrelevant axes span everything.
                if !beta.axes.contains(j) {
                    prop_assert!(exactly(beta.bounds.lower(j), 0.0), "axis {j}");
                    prop_assert!(exactly(beta.bounds.upper(j), 1.0), "axis {j}");
                }
            }
        }
    }

    /// Correlation clusters reference valid β indices, exactly once each.
    #[test]
    fn merge_references_are_a_partition_of_betas(spec in spec_strategy()) {
        let synth = generate(&spec);
        let result = MrCC::default().fit(&synth.dataset).unwrap();
        let mut seen = vec![false; result.n_beta_clusters()];
        for cluster in &result.clusters {
            prop_assert!(!cluster.axes.is_empty());
            for &m in &cluster.beta_indices {
                prop_assert!(m < seen.len());
                prop_assert!(!seen[m], "β {m} in two correlation clusters");
                seen[m] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "orphan β-cluster");
    }

    /// Every labeled point actually lies inside one of its cluster's
    /// β-boxes (the labeling rule of Algorithm 3).
    #[test]
    fn members_are_inside_their_boxes(spec in spec_strategy()) {
        let synth = generate(&spec);
        let result = MrCC::default().fit(&synth.dataset).unwrap();
        for (cluster, report) in result.clustering.clusters().iter().zip(&result.clusters) {
            for &i in cluster.points.iter().take(50) {
                let p = synth.dataset.point(i);
                let inside = report
                    .beta_indices
                    .iter()
                    .any(|&m| result.beta_clusters[m].bounds.contains(p));
                prop_assert!(inside, "point {i} outside every member box");
            }
        }
    }

    /// Tighter α never yields more β-clusters.
    #[test]
    fn alpha_monotonicity(seed in 0u64..200) {
        let spec = SyntheticSpec::new("prop-a", 6, 3_000, 2, 0.15, seed);
        let synth = generate(&spec);
        let count = |alpha: f64| {
            MrCC::new(MrCCConfig::with_params(alpha, 4))
                .fit(&synth.dataset)
                .unwrap()
                .n_beta_clusters()
        };
        prop_assert!(count(1e-3) >= count(1e-60));
    }

    /// Pure-uniform data (η points, no clusters) almost never produces a
    /// dominant cluster at the default α.
    #[test]
    fn uniform_data_stays_noise(seed in 0u64..100) {
        let spec = SyntheticSpec::new("prop-u", 5, 2_000, 0, 0.0, seed);
        let synth = generate(&spec);
        let result = MrCC::default().fit(&synth.dataset).unwrap();
        prop_assert!(
            result.noise_ratio() > 0.8,
            "uniform data clustered: noise ratio {}",
            result.noise_ratio()
        );
    }

    /// Datasets that fit in a single grid cell do not crash and produce at
    /// most one cluster.
    #[test]
    fn degenerate_tight_blob(seed in 0u64..50) {
        let mut rows = Vec::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 11) as f64 / (1u64 << 53) as f64;
            rows.push([0.5 + 0.001 * (r - 0.5), 0.5 + 0.001 * r]);
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let result = MrCC::default().fit(&ds).unwrap();
        prop_assert!(result.n_clusters() <= 2);
    }
}
