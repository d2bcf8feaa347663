//! The shared clustering result type.
//!
//! Every method in the workspace — MrCC and all baselines — emits a
//! [`SubspaceClustering`]: a list of disjoint clusters, each pairing a point
//! set `δ_γS_k` with its relevant axes `δ_γE_k` (Definition 2), plus an
//! implicit noise set (every point assigned to no cluster). This is exactly
//! the structure the evaluation metrics of Section IV-A consume.

use crate::mask::AxisMask;

/// Label used for noise points in [`SubspaceClustering::labels`].
pub const NOISE: i32 = -1;

/// One correlation/projected cluster: members + relevant axes.
#[derive(Debug, Clone)]
pub struct SubspaceCluster {
    /// Indices of member points, ascending and unique.
    pub points: Vec<usize>,
    /// Axes relevant to the cluster.
    pub axes: AxisMask,
}

impl SubspaceCluster {
    /// Creates a cluster, normalizing the member list to sorted-unique order.
    pub fn new(mut points: Vec<usize>, axes: AxisMask) -> Self {
        points.sort_unstable();
        points.dedup();
        SubspaceCluster { points, axes }
    }

    /// Number of member points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Cluster dimensionality `δ` (cardinality of the relevant axis set).
    pub fn dimensionality(&self) -> usize {
        self.axes.count()
    }
}

/// A full clustering of a dataset of `n_points` points in `dims` axes.
#[derive(Debug, Clone)]
#[must_use = "a SubspaceClustering is the result of a fit; dropping it discards the labels"]
pub struct SubspaceClustering {
    n_points: usize,
    dims: usize,
    clusters: Vec<SubspaceCluster>,
}

impl SubspaceClustering {
    /// Creates an empty (all-noise) clustering.
    pub fn empty(n_points: usize, dims: usize) -> Self {
        SubspaceClustering {
            n_points,
            dims,
            clusters: Vec::new(),
        }
    }

    /// Creates a clustering from clusters.
    ///
    /// # Panics
    /// Panics if any member index is out of range, any cluster's mask has the
    /// wrong dimensionality, or two clusters share a point — Definition 2
    /// requires disjoint point sets.
    pub fn new(n_points: usize, dims: usize, clusters: Vec<SubspaceCluster>) -> Self {
        let mut seen = vec![false; n_points];
        for (k, c) in clusters.iter().enumerate() {
            assert_eq!(c.axes.dims(), dims, "cluster {k}: axis mask dims mismatch");
            #[expect(
                clippy::indexing_slicing,
                reason = "`p < seen.len()` is asserted first"
            )]
            for &p in &c.points {
                assert!(p < n_points, "cluster {k}: point {p} out of range");
                assert!(!seen[p], "point {p} assigned to two clusters");
                seen[p] = true;
            }
        }
        SubspaceClustering {
            n_points,
            dims,
            clusters,
        }
    }

    /// Builds a clustering from a per-point label vector (`NOISE` = noise) and
    /// per-label axis masks. Labels must be `0..masks.len()` or `NOISE`.
    ///
    /// # Panics
    /// Panics on a label outside `0..masks.len()` other than `NOISE`.
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn from_labels(labels: &[i32], masks: &[AxisMask], dims: usize) -> Self {
        let mut points: Vec<Vec<usize>> = vec![Vec::new(); masks.len()];
        for (i, &l) in labels.iter().enumerate() {
            if l != NOISE {
                points[l as usize].push(i);
            }
        }
        let clusters = points
            .into_iter()
            .zip(masks.iter().copied())
            .map(|(pts, axes)| SubspaceCluster::new(pts, axes))
            .filter(|c| !c.is_empty())
            .collect();
        SubspaceClustering::new(labels.len(), dims, clusters)
    }

    /// Number of points in the underlying dataset.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Dimensionality of the embedding space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The clusters.
    pub fn clusters(&self) -> &[SubspaceCluster] {
        &self.clusters
    }

    /// Number of clusters (`γk` for a found clustering, `rk` for ground truth).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when no cluster was found (everything is noise).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Per-point labels: cluster index, or [`NOISE`].
    #[expect(
        clippy::indexing_slicing,
        reason = "`new` checks every member < n_points"
    )]
    pub fn labels(&self) -> Vec<i32> {
        let mut labels = vec![NOISE; self.n_points];
        for (k, c) in self.clusters.iter().enumerate() {
            for &p in &c.points {
                labels[p] = k as i32;
            }
        }
        labels
    }

    /// Indices of noise points (assigned to no cluster).
    #[expect(clippy::indexing_slicing, reason = "`labels()` has n_points entries")]
    pub fn noise(&self) -> Vec<usize> {
        let labels = self.labels();
        (0..self.n_points).filter(|&i| labels[i] == NOISE).collect()
    }

    /// Total points assigned to some cluster.
    pub fn n_clustered(&self) -> usize {
        self.clusters.iter().map(SubspaceCluster::len).sum()
    }

    /// Re-verifies the structural invariants of Definition 2 on the stored
    /// state: member indices in range, member lists sorted and duplicate-free,
    /// axis masks of the embedding width, and pairwise-disjoint point sets.
    ///
    /// [`SubspaceClustering::new`] establishes these properties at
    /// construction; this method re-checks them after the fact so property
    /// tests can catch any code path that mutates a clustering into an
    /// inconsistent state.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.n_points];
        for (k, c) in self.clusters.iter().enumerate() {
            assert_eq!(
                c.axes.dims(),
                self.dims,
                "invariant violated: cluster {k} axis mask has wrong dimensionality"
            );
            assert!(
                c.points.is_sorted_by(|a, b| a < b),
                "invariant violated: cluster {k} member list not sorted-unique"
            );
            #[expect(
                clippy::indexing_slicing,
                reason = "`p < seen.len()` is asserted first"
            )]
            for &p in &c.points {
                assert!(
                    p < self.n_points,
                    "invariant violated: cluster {k} member {p} out of range"
                );
                assert!(
                    !seen[p],
                    "invariant violated: point {p} assigned to two clusters"
                );
                seen[p] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(dims: usize, axes: &[usize]) -> AxisMask {
        AxisMask::from_axes(dims, axes.iter().copied())
    }

    #[test]
    fn labels_roundtrip() {
        let c = SubspaceClustering::new(
            6,
            3,
            vec![
                SubspaceCluster::new(vec![0, 1], mask(3, &[0, 1])),
                SubspaceCluster::new(vec![4, 3], mask(3, &[2])),
            ],
        );
        assert_eq!(c.labels(), vec![0, 0, NOISE, 1, 1, NOISE]);
        assert_eq!(c.noise(), vec![2, 5]);
        assert_eq!(c.n_clustered(), 4);

        let rebuilt =
            SubspaceClustering::from_labels(&c.labels(), &[mask(3, &[0, 1]), mask(3, &[2])], 3);
        assert_eq!(rebuilt.labels(), c.labels());
    }

    #[test]
    fn members_are_normalized() {
        let c = SubspaceCluster::new(vec![3, 1, 3, 2], mask(2, &[0]));
        assert_eq!(c.points, vec![1, 2, 3]);
        assert_eq!(c.dimensionality(), 1);
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn overlapping_clusters_panic() {
        let _ = SubspaceClustering::new(
            3,
            2,
            vec![
                SubspaceCluster::new(vec![0, 1], mask(2, &[0])),
                SubspaceCluster::new(vec![1, 2], mask(2, &[1])),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_point_panics() {
        let _ = SubspaceClustering::new(2, 2, vec![SubspaceCluster::new(vec![5], mask(2, &[0]))]);
    }

    #[test]
    fn from_labels_drops_empty_clusters() {
        let labels = vec![NOISE, 1, 1];
        let masks = [mask(2, &[0]), mask(2, &[1])];
        let c = SubspaceClustering::from_labels(&labels, &masks, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters()[0].points, vec![1, 2]);
    }

    #[test]
    fn empty_clustering_is_all_noise() {
        let c = SubspaceClustering::empty(4, 3);
        assert!(c.is_empty());
        assert_eq!(c.noise().len(), 4);
    }
}
