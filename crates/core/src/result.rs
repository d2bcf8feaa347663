//! The output of a full MrCC fit.

use std::time::Duration;

use mrcc_common::SubspaceClustering;

use crate::beta::BetaCluster;
use crate::merge::{CorrelationCluster, MergeCache};

/// Phase timings and resource accounting of one fit.
#[derive(Debug, Clone)]
pub struct FitStats {
    /// Heap footprint of the Counting-tree right after construction.
    pub tree_memory_bytes: usize,
    /// Wall time of phase one (Algorithm 1).
    pub tree_build: Duration,
    /// Wall time of phase two (Algorithm 2).
    pub beta_search: Duration,
    /// Wall time of phase three (Algorithm 3) including point labeling.
    pub merge_phase: Duration,
}

impl FitStats {
    /// Total wall time across all three phases.
    pub fn total_time(&self) -> Duration {
        self.tree_build + self.beta_search + self.merge_phase
    }
}

/// Everything a fit produces.
#[derive(Debug, Clone)]
#[must_use = "an MrCCResult is the whole output of a fit; dropping it discards the clustering"]
pub struct MrCCResult {
    /// The dataset partition: disjoint clusters + implicit noise.
    pub clustering: SubspaceClustering,
    /// The correlation clusters with their relevant axes and member
    /// β-clusters (`γk` entries).
    pub clusters: Vec<CorrelationCluster>,
    /// The raw β-clusters of phase two (`βk` entries), for diagnostics.
    pub beta_clusters: Vec<BetaCluster>,
    /// Artifacts of the merge phase's single dataset pass (per-β point
    /// counts and per-point containing-box sets), reused by
    /// [`MrCCResult::soft_memberships`] so no consumer re-scans the dataset.
    pub merge_cache: MergeCache,
    /// Resource accounting.
    pub stats: FitStats,
}

impl MrCCResult {
    /// Number of correlation clusters found (`γk`).
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of β-clusters found (`βk`).
    pub fn n_beta_clusters(&self) -> usize {
        self.beta_clusters.len()
    }

    /// Fraction of points labeled as noise.
    pub fn noise_ratio(&self) -> f64 {
        if self.clustering.n_points() == 0 {
            return 0.0;
        }
        1.0 - self.clustering.n_clustered() as f64 / self.clustering.n_points() as f64
    }

    /// Re-verifies the cross-structure invariants of a finished fit:
    ///
    /// * the point partition satisfies the [`SubspaceClustering`] invariants
    ///   (disjoint hard labels, in-range members);
    /// * every β-cluster box lies inside the unit cube with `L[j] ≤ U[j]`
    ///   per axis and carries at least one relevant axis;
    /// * every correlation cluster references valid β-cluster indices
    ///   (sorted, unique), its axis set covers the union of its members'
    ///   axes, and its hull has the embedding dimensionality;
    /// * the merge cache covers every point and every β-cluster, and each
    ///   cached containing-box list is sorted-unique with in-range ids.
    ///
    /// Compiled only with the `strict-invariants` feature; call from tests
    /// after `fit`.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    #[cfg(feature = "strict-invariants")]
    pub fn check_invariants(&self) {
        self.clustering.check_invariants();
        let d = self.clustering.dims();
        for (k, b) in self.beta_clusters.iter().enumerate() {
            assert_eq!(
                b.bounds.dims(),
                d,
                "invariant violated: β-cluster {k} box has wrong dimensionality"
            );
            assert!(
                b.axes.count() > 0,
                "invariant violated: β-cluster {k} has no relevant axis"
            );
            for j in 0..d {
                let (lo, hi) = (b.bounds.lower(j), b.bounds.upper(j));
                assert!(
                    lo <= hi,
                    "invariant violated: β-cluster {k} axis {j} has inverted bounds [{lo}, {hi}]"
                );
                assert!(
                    (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi),
                    "invariant violated: β-cluster {k} axis {j} bounds [{lo}, {hi}] leave the unit cube"
                );
            }
        }
        for (k, c) in self.clusters.iter().enumerate() {
            assert!(
                c.beta_indices.windows(2).all(|w| w[0] < w[1]),
                "invariant violated: correlation cluster {k} member list not sorted-unique"
            );
            assert_eq!(
                c.hull.dims(),
                d,
                "invariant violated: correlation cluster {k} hull has wrong dimensionality"
            );
            for &bi in &c.beta_indices {
                assert!(
                    bi < self.beta_clusters.len(),
                    "invariant violated: correlation cluster {k} references β-cluster {bi}"
                );
                let member = &self.beta_clusters[bi];
                assert!(
                    member.axes.iter().all(|j| c.axes.contains(j)),
                    "invariant violated: correlation cluster {k} axes do not cover member {bi}"
                );
            }
        }
        assert_eq!(
            self.merge_cache.n_points(),
            self.clustering.n_points(),
            "invariant violated: merge cache covers the wrong point count"
        );
        assert_eq!(
            self.merge_cache.n_boxes(),
            self.beta_clusters.len(),
            "invariant violated: merge cache covers the wrong β-cluster count"
        );
        for i in 0..self.merge_cache.n_points() {
            let ids = self.merge_cache.containing(i);
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "invariant violated: point {i} containment list not sorted-unique"
            );
            assert!(
                ids.iter().all(|&b| (b as usize) < self.beta_clusters.len()),
                "invariant violated: point {i} containment references missing β-cluster"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    #[test]
    fn stats_total_is_sum_of_phases() {
        let s = FitStats {
            tree_memory_bytes: 1024,
            tree_build: Duration::from_millis(5),
            beta_search: Duration::from_millis(7),
            merge_phase: Duration::from_millis(3),
        };
        assert_eq!(s.total_time(), Duration::from_millis(15));
    }

    #[test]
    fn noise_ratio_of_empty_result() {
        let r = MrCCResult {
            clustering: SubspaceClustering::empty(10, 3),
            clusters: Vec::new(),
            beta_clusters: Vec::new(),
            merge_cache: MergeCache::empty(10),
            stats: FitStats {
                tree_memory_bytes: 0,
                tree_build: Duration::ZERO,
                beta_search: Duration::ZERO,
                merge_phase: Duration::ZERO,
            },
        };
        assert_eq!(r.n_clusters(), 0);
        assert!(exactly(r.noise_ratio(), 1.0));
    }
}
