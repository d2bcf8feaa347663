//! Soft clustering — the extension introduced by the journal version of
//! this work (Halite, TKDE 2013).
//!
//! MrCC's hard labeling (Algorithm 3) assigns each point to at most one
//! correlation cluster. Real data often has genuinely overlapping
//! structure: a point inside the regions of two clusters is better
//! described by *membership weights* than by a forced choice. The soft
//! assignment here follows the Halite\_s idea: every cluster whose region
//! covers a point contributes a membership proportional to the cluster's
//! local density at the point — the density of the densest member β-box
//! that contains it — and weights are normalized per point.
//!
//! The memberships of all points live in one flat array in compressed
//! sparse row (CSR) form, like the [`crate::MergeCache`] they are computed
//! from: point `i`'s row is `entries[offsets[i]..offsets[i + 1]]`.

use mrcc_common::Dataset;

use crate::result::MrCCResult;

/// Per-point soft memberships: for each point, the list of
/// `(cluster index, weight)` pairs, weights summing to 1 (empty for noise).
///
/// Stored as CSR: one `offsets` array of length `η + 1` and one `entries`
/// array holding every point's row back to back, so the whole clustering
/// is two heap blocks whatever `η`.
#[derive(Debug, Clone)]
pub struct SoftClustering {
    /// Point `i`'s row is `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Every row's `(cluster, weight)` pairs, each row by descending weight.
    entries: Vec<(usize, f64)>,
    n_clusters: usize,
}

impl SoftClustering {
    /// Memberships of point `i`, sorted by descending weight.
    ///
    /// # Panics
    /// Panics when `i` is not a valid point index.
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn memberships(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of points.
    pub fn n_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of clusters weights may refer to.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Points assigned to more than one cluster.
    pub fn n_shared_points(&self) -> usize {
        (0..self.n_points())
            .filter(|&i| self.memberships(i).len() > 1)
            .count()
    }

    /// Hardens to a label vector: the strongest membership wins, noise
    /// stays [`mrcc_common::NOISE`].
    pub fn harden(&self) -> Vec<i32> {
        (0..self.n_points())
            .map(|i| {
                self.memberships(i)
                    .first()
                    .map_or(mrcc_common::NOISE, |&(k, _)| k as i32)
            })
            .collect()
    }
}

impl MrCCResult {
    /// Computes Halite-style soft memberships for every dataset point.
    ///
    /// A point receives one candidate weight per correlation cluster whose
    /// member β-boxes contain it: the highest *density* (points per unit of
    /// relevant-subspace volume, normalized per axis) among those boxes.
    /// Candidate weights are then normalized to sum to 1 per point. Points
    /// covered by no cluster have no memberships (noise), and hard labels
    /// from [`SoftClustering::harden`] agree with the one-cluster case of
    /// Algorithm 3.
    ///
    /// Cost: `O(η · c)` where `c` is the mean containing-box count per
    /// point — both the per-β populations and each point's containing-box
    /// set come from the fit's [`crate::MergeCache`], so this performs
    /// **zero** dataset scans (a unit test pins the test-only
    /// `merge::dataset_scan_count` at +0 across this call). It is one flat
    /// pass over the points that makes at most four allocations whatever
    /// `η`: the per-β table, one scratch buffer for a point's containing
    /// boxes, and the result's two CSR arrays, each allocated once at its
    /// final capacity (`tests/soft_allocations.rs` pins the count at `η`
    /// and `4η`).
    ///
    /// # Panics
    /// Panics when `dataset` is not the dataset this result was fitted on
    /// (length mismatch).
    pub fn soft_memberships(&self, dataset: &Dataset) -> SoftClustering {
        assert_eq!(
            dataset.len(),
            self.clustering.n_points(),
            "soft_memberships needs the dataset the result was fitted on"
        );

        // Per β-cluster: the correlation cluster it belongs to (every β
        // belongs to exactly one) and its box density, points inside over
        // relevant-subspace volume. Work in log space per axis to keep tiny
        // volumes stable. Counts come from the merge pass, not a re-scan.
        let mut candidate_of: Vec<(usize, f64)> = self
            .beta_clusters
            .iter()
            .enumerate()
            .map(|(m, b)| {
                let mut log_volume = 0.0f64;
                for j in b.axes.iter() {
                    log_volume += b.bounds.extent(j).max(1e-12).ln();
                }
                // Normalize per relevant axis so clusters of different
                // dimensionality compare on the same footing.
                let delta = b.axes.count().max(1) as f64;
                let density =
                    (self.merge_cache.box_count(m).max(1) as f64).ln() - log_volume / delta;
                (0, density)
            })
            .collect();
        for (k, cluster) in self.clusters.iter().enumerate() {
            #[expect(clippy::indexing_slicing, reason = "members index β-clusters")]
            for &m in &cluster.beta_indices {
                candidate_of[m].0 = k;
            }
        }

        let n = dataset.len();
        let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
        offsets.push(0);
        // A point has at most one entry per containing box.
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(self.merge_cache.n_containments());
        // A point lies in each box at most once.
        let mut hits: Vec<(usize, f64)> = Vec::with_capacity(candidate_of.len());
        for i in 0..n {
            // The cached containing-box list is ascending by β index, so the
            // stable sort by cluster folds each cluster's densities in
            // member (β-index) order, and candidate clusters emerge in
            // ascending cluster order.
            hits.clear();
            #[expect(clippy::indexing_slicing, reason = "containment ids index β-clusters")]
            hits.extend(
                self.merge_cache
                    .containing(i)
                    .iter()
                    .map(|&m| candidate_of[m as usize]),
            );
            hits.sort_by_key(|&(k, _)| k);
            let start = entries.len();
            for &(k, d) in &hits {
                match entries.get_mut(start..).and_then(<[_]>::last_mut) {
                    Some((last, best)) if *last == k => {
                        // Same tie behaviour as `Iterator::max_by`: a later
                        // equal value replaces the earlier one.
                        #[expect(clippy::expect_used, reason = "box densities are finite")]
                        if d.partial_cmp(best)
                            .expect("box densities are finite by construction invariant")
                            .is_ge()
                        {
                            *best = d;
                        }
                    }
                    _ => entries.push((k, d)),
                }
            }
            #[expect(clippy::indexing_slicing, reason = "start ≤ entries.len()")]
            softmax_in_place(&mut entries[start..]);
            offsets.push(entries.len());
        }
        SoftClustering {
            offsets,
            entries,
            n_clusters: self.clusters.len(),
        }
    }
}

/// Turns one point's `(cluster, log-density score)` candidates into
/// normalized weights, sorted by descending weight; equal weights keep
/// their ascending cluster order.
///
/// # Panics
/// Panics when a score is NaN; box densities are finite by construction.
fn softmax_in_place(row: &mut [(usize, f64)]) {
    let max_score = row
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    for (_, w) in row.iter_mut() {
        *w = (*w - max_score).exp();
    }
    let total: f64 = row.iter().map(|&(_, w)| w).sum();
    for (_, w) in row.iter_mut() {
        *w /= total;
    }
    #[expect(clippy::expect_used, reason = "softmax weights are finite")]
    row.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("softmax weights are finite and nonnegative invariant")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MrCC;

    /// Two tight blobs plus a bridge point region between them.
    fn overlapping_blobs() -> Dataset {
        let mut state = 0x50F7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for _ in 0..800 {
            rows.push([0.30 + 0.04 * (next() - 0.5), 0.30 + 0.04 * (next() - 0.5)]);
            rows.push([0.42 + 0.04 * (next() - 0.5), 0.42 + 0.04 * (next() - 0.5)]);
        }
        for _ in 0..200 {
            rows.push([next() * 0.99, next() * 0.99]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn weights_normalize_and_sort() {
        let ds = overlapping_blobs();
        let result = MrCC::default().fit(&ds).unwrap();
        let soft = result.soft_memberships(&ds);
        assert_eq!(soft.n_points(), ds.len());
        for i in 0..soft.n_points() {
            let m = soft.memberships(i);
            if m.is_empty() {
                continue;
            }
            let total: f64 = m.iter().map(|&(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "point {i}: weights sum {total}");
            for w in m.windows(2) {
                assert!(w[0].1 >= w[1].1, "point {i}: not sorted");
            }
            for &(k, w) in m {
                assert!(k < soft.n_clusters());
                assert!(w > 0.0 && w <= 1.0);
            }
        }
    }

    #[test]
    fn hardened_labels_cover_the_hard_clustering() {
        // Every point the hard labeling assigns must also get a soft
        // membership in some cluster (the hard rule is "inside a member
        // box", which is exactly the soft candidate rule).
        let ds = overlapping_blobs();
        let result = MrCC::default().fit(&ds).unwrap();
        let soft = result.soft_memberships(&ds);
        let hard = result.clustering.labels();
        let soft_hard = soft.harden();
        for i in 0..ds.len() {
            if hard[i] >= 0 {
                assert!(soft_hard[i] >= 0, "point {i} lost by soft assignment");
            } else {
                assert_eq!(soft_hard[i], mrcc_common::NOISE);
            }
        }
    }

    #[test]
    fn noise_points_have_no_membership() {
        let ds = overlapping_blobs();
        let result = MrCC::default().fit(&ds).unwrap();
        let soft = result.soft_memberships(&ds);
        for &i in result.clustering.noise().iter().take(50) {
            assert!(
                soft.memberships(i).is_empty(),
                "noise point {i} got weights"
            );
        }
    }

    #[test]
    fn one_counting_pass_per_fit_and_none_per_soft_call() {
        // The single-scan contract, pinned end to end: the whole merge
        // phase of a fit reads the dataset exactly once, and
        // soft_memberships — which used to redo the per-β counting scans —
        // now reads it zero times.
        let ds = overlapping_blobs();
        let before = crate::merge::dataset_scan_count();
        let result = MrCC::default().fit(&ds).unwrap();
        assert_eq!(
            crate::merge::dataset_scan_count() - before,
            1,
            "fit must perform exactly one merge-phase dataset pass"
        );
        let before = crate::merge::dataset_scan_count();
        let soft = result.soft_memberships(&ds);
        let _ = result.soft_memberships(&ds);
        assert_eq!(
            crate::merge::dataset_scan_count() - before,
            0,
            "soft_memberships must reuse the merge cache, not re-scan"
        );
        assert!(soft.n_points() == ds.len());
    }

    #[test]
    #[should_panic(expected = "fitted on")]
    fn rejects_a_different_dataset() {
        let ds = overlapping_blobs();
        let result = MrCC::default().fit(&ds).unwrap();
        let other = Dataset::from_rows(&[[0.5, 0.5]]).unwrap();
        let _ = result.soft_memberships(&other);
    }
}
