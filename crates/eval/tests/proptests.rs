//! Property-based invariants of the Quality metrics.

use mrcc_common::float::exactly;
use mrcc_common::{AxisMask, SubspaceCluster, SubspaceClustering};
use mrcc_eval::{quality, subspace_quality};
use proptest::prelude::*;

/// Strategy: a random clustering over `n` points in `d` dims with up to `k`
/// clusters built from a random label vector.
fn clustering_strategy(n: usize, d: usize, k: usize) -> impl Strategy<Value = SubspaceClustering> {
    (
        proptest::collection::vec(-1i32..k as i32, n..=n),
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), d..=d), k..=k),
    )
        .prop_map(move |(labels, axis_flags)| {
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (i, &l) in labels.iter().enumerate() {
                if l >= 0 {
                    members[l as usize].push(i);
                }
            }
            let clusters = members
                .into_iter()
                .zip(axis_flags)
                .filter(|(pts, _)| !pts.is_empty())
                .map(|(pts, flags)| {
                    let mut mask = AxisMask::from_bools(&flags);
                    if mask.is_empty() {
                        mask.insert(0);
                    }
                    SubspaceCluster::new(pts, mask)
                })
                .collect();
            SubspaceClustering::new(n, d, clusters)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quality and Subspaces Quality always land in [0, 1].
    #[test]
    fn quality_is_bounded(
        found in clustering_strategy(40, 4, 3),
        real in clustering_strategy(40, 4, 3),
    ) {
        let q = quality(&found, &real);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&q.quality), "{}", q.quality);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&q.avg_precision));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&q.avg_recall));
        let sq = subspace_quality(&found, &real);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&sq.quality));
    }

    /// A clustering compared against itself is perfect.
    #[test]
    fn self_comparison_is_perfect(c in clustering_strategy(40, 4, 3)) {
        prop_assume!(!c.is_empty());
        let q = quality(&c, &c);
        prop_assert!((q.quality - 1.0).abs() < 1e-12, "{}", q.quality);
        let sq = subspace_quality(&c, &c);
        prop_assert!((sq.quality - 1.0).abs() < 1e-12);
    }

    /// Quality is never positive when either side has no clusters.
    #[test]
    fn empty_side_scores_zero(c in clustering_strategy(40, 4, 3)) {
        let empty = SubspaceClustering::empty(40, 4);
        prop_assert!(exactly(quality(&empty, &c).quality, 0.0));
        prop_assert!(exactly(quality(&c, &empty).quality, 0.0));
    }

    /// The harmonic mean lies between the two averages (when both are
    /// positive) and is zero when either is zero.
    #[test]
    fn harmonic_mean_bound(
        found in clustering_strategy(40, 4, 3),
        real in clustering_strategy(40, 4, 3),
    ) {
        let q = quality(&found, &real);
        if q.avg_precision > 0.0 && q.avg_recall > 0.0 {
            let lo = q.avg_precision.min(q.avg_recall);
            let hi = q.avg_precision.max(q.avg_recall);
            prop_assert!(q.quality >= lo - 1e-12);
            prop_assert!(q.quality <= hi + 1e-12);
        } else {
            prop_assert!(exactly(q.quality, 0.0), "quality {}", q.quality);
        }
    }
}
