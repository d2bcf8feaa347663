//! Clustering quality metrics (paper Section IV-A).
//!
//! For each *found* cluster the **most dominant real cluster** is the real
//! cluster sharing the most points with it, and vice versa. Precision and
//! recall of a (found, real) pair are
//!
//! ```text
//! precision(f, r) = |S_f ∩ S_r| / |S_f|        (Eq. 1)
//! recall(f, r)    = |S_f ∩ S_r| / |S_r|        (Eq. 2)
//! ```
//!
//! **Quality** is the harmonic mean of (a) the precision averaged over all
//! found clusters paired with their dominant real cluster — proportional to
//! the *dominant ratio* — and (b) the recall averaged over all real clusters
//! paired with their dominant found cluster — proportional to the *coverage
//! ratio*. When a method finds no clusters the paper scores 0.
//!
//! **Subspaces Quality** repeats the construction with the point sets
//! replaced by the relevant-axis sets `E`; the dominant pairing itself stays
//! point-based (it is what identifies *which* real cluster a found cluster
//! captures).

use mrcc_common::{SubspaceClustering, NOISE};
use serde_json::{ToJson, Value};

/// One found↔real pairing with its scores.
#[derive(Debug, Clone)]
pub struct ClusterMatch {
    /// Index on the side being iterated (found for precision, real for
    /// recall).
    pub index: usize,
    /// Index of the dominant cluster on the other side, `None` when the
    /// other side is empty.
    pub dominant: Option<usize>,
    /// Shared point count with the dominant cluster.
    pub shared: usize,
    /// The score (precision or recall) of the pair.
    pub score: f64,
}

/// Full quality report of one clustering against ground truth.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Averaged precision over found clusters.
    pub avg_precision: f64,
    /// Averaged recall over real clusters.
    pub avg_recall: f64,
    /// Harmonic mean of the two averages.
    pub quality: f64,
    /// Per-found-cluster matches (precision side).
    pub precision_matches: Vec<ClusterMatch>,
    /// Per-real-cluster matches (recall side).
    pub recall_matches: Vec<ClusterMatch>,
}

// Hand-written because the offline serde_json stand-in has no derive macros
// (see vendor/serde_json).
impl ToJson for ClusterMatch {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("index".to_string(), self.index.to_json()),
            ("dominant".to_string(), self.dominant.to_json()),
            ("shared".to_string(), self.shared.to_json()),
            ("score".to_string(), self.score.to_json()),
        ])
    }
}

impl ToJson for QualityReport {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("avg_precision".to_string(), self.avg_precision.to_json()),
            ("avg_recall".to_string(), self.avg_recall.to_json()),
            ("quality".to_string(), self.quality.to_json()),
            (
                "precision_matches".to_string(),
                self.precision_matches.to_json(),
            ),
            ("recall_matches".to_string(), self.recall_matches.to_json()),
        ])
    }
}

/// Point-overlap contingency table between two clusterings, built in
/// `O(η + f·r)` from the label vectors.
fn contingency(found: &SubspaceClustering, real: &SubspaceClustering) -> Vec<Vec<usize>> {
    assert_eq!(
        found.n_points(),
        real.n_points(),
        "clusterings cover different datasets"
    );
    let fl = found.labels();
    let rl = real.labels();
    let mut table = vec![vec![0usize; real.len()]; found.len()];
    for (f, r) in fl.iter().zip(&rl) {
        if *f != NOISE && *r != NOISE {
            table[*f as usize][*r as usize] += 1;
        }
    }
    table
}

/// Computes the paper's Quality of `found` against `real` (ground truth).
///
/// ```
/// use mrcc_common::{AxisMask, SubspaceCluster, SubspaceClustering};
/// use mrcc_eval::quality;
///
/// let truth = SubspaceClustering::new(6, 2, vec![
///     SubspaceCluster::new(vec![0, 1, 2], AxisMask::from_axes(2, [0])),
/// ]);
/// // Found half the cluster, nothing foreign: precision 1, recall 0.5.
/// let found = SubspaceClustering::new(6, 2, vec![
///     SubspaceCluster::new(vec![0, 1], AxisMask::from_axes(2, [0])),
/// ]);
/// let report = quality(&found, &truth);
/// assert!((report.avg_precision - 1.0).abs() < 1e-12);
/// assert!((report.avg_recall - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn quality(found: &SubspaceClustering, real: &SubspaceClustering) -> QualityReport {
    let table = contingency(found, real);
    score_with(
        found,
        real,
        &table,
        |f, _r| found.clusters()[f].len(),
        |_f, r| real.clusters()[r].len(),
        |_f, _r, shared| shared as f64,
    )
}

/// Computes the Subspaces Quality: the same averaged precision/recall
/// harmonic mean, but scoring each dominant pair by its **axis-set** overlap
/// instead of its point overlap.
pub fn subspace_quality(found: &SubspaceClustering, real: &SubspaceClustering) -> QualityReport {
    let table = contingency(found, real);
    score_with(
        found,
        real,
        &table,
        |f, _r| found.clusters()[f].axes.count(),
        |_f, r| real.clusters()[r].axes.count(),
        |f, r, _shared| {
            found.clusters()[f]
                .axes
                .intersection_count(&real.clusters()[r].axes) as f64
        },
    )
}

/// Shared scoring skeleton. `denom_found`/`denom_real` yield the
/// denominators of Eq. 1 / Eq. 2; `numer` yields the shared quantity of a
/// dominant pair (points or axes).
fn score_with(
    found: &SubspaceClustering,
    real: &SubspaceClustering,
    table: &[Vec<usize>],
    denom_found: impl Fn(usize, usize) -> usize,
    denom_real: impl Fn(usize, usize) -> usize,
    numer: impl Fn(usize, usize, usize) -> f64,
) -> QualityReport {
    // Precision side: every found cluster against its dominant real cluster.
    let mut precision_matches = Vec::with_capacity(found.len());
    for (f, row) in table.iter().enumerate() {
        let dominant = (0..real.len()).max_by_key(|&r| row[r]);
        let (score, shared) = match dominant {
            Some(r) => {
                let shared = row[r];
                let den = denom_found(f, r);
                let num = numer(f, r, shared);
                (if den > 0 { num / den as f64 } else { 0.0 }, shared)
            }
            None => (0.0, 0),
        };
        precision_matches.push(ClusterMatch {
            index: f,
            dominant,
            shared,
            score,
        });
    }
    // Recall side: every real cluster against its dominant found cluster.
    let mut recall_matches = Vec::with_capacity(real.len());
    // A column-major walk over the contingency table reads clearest indexed.
    #[expect(clippy::needless_range_loop, reason = "column-major walk")]
    for r in 0..real.len() {
        let dominant = (0..found.len()).max_by_key(|&f| table[f][r]);
        let (score, shared) = match dominant {
            Some(f) => {
                let shared = table[f][r];
                let den = denom_real(f, r);
                let num = numer(f, r, shared);
                (if den > 0 { num / den as f64 } else { 0.0 }, shared)
            }
            None => (0.0, 0),
        };
        recall_matches.push(ClusterMatch {
            index: r,
            dominant,
            shared,
            score,
        });
    }

    let avg = |ms: &[ClusterMatch]| -> f64 {
        if ms.is_empty() {
            0.0
        } else {
            ms.iter().map(|m| m.score).sum::<f64>() / ms.len() as f64
        }
    };
    let avg_precision = avg(&precision_matches);
    let avg_recall = avg(&recall_matches);
    let q = if avg_precision > 0.0 && avg_recall > 0.0 {
        2.0 * avg_precision * avg_recall / (avg_precision + avg_recall)
    } else {
        0.0
    };
    QualityReport {
        avg_precision,
        avg_recall,
        quality: q,
        precision_matches,
        recall_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;
    use mrcc_common::{AxisMask, SubspaceCluster};

    fn clustering(n: usize, dims: usize, groups: &[(&[usize], &[usize])]) -> SubspaceClustering {
        let clusters = groups
            .iter()
            .map(|(pts, axes)| {
                SubspaceCluster::new(
                    pts.to_vec(),
                    AxisMask::from_axes(dims, axes.iter().copied()),
                )
            })
            .collect();
        SubspaceClustering::new(n, dims, clusters)
    }

    #[test]
    fn perfect_match_scores_one() {
        let real = clustering(10, 4, &[(&[0, 1, 2], &[0, 1]), (&[5, 6, 7], &[2, 3])]);
        let found = clustering(10, 4, &[(&[0, 1, 2], &[0, 1]), (&[5, 6, 7], &[2, 3])]);
        let q = quality(&found, &real);
        assert!((q.quality - 1.0).abs() < 1e-12);
        let sq = subspace_quality(&found, &real);
        assert!((sq.quality - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_found_clusters_scores_zero() {
        let real = clustering(10, 4, &[(&[0, 1, 2], &[0])]);
        let found = SubspaceClustering::empty(10, 4);
        assert!(exactly(quality(&found, &real).quality, 0.0));
        assert!(exactly(subspace_quality(&found, &real).quality, 0.0));
    }

    #[test]
    fn half_precision_half_recall() {
        // Found cluster covers the real cluster plus as many foreign points.
        let real = clustering(8, 2, &[(&[0, 1], &[0])]);
        let found = clustering(8, 2, &[(&[0, 1, 2, 3], &[0])]);
        let q = quality(&found, &real);
        assert!((q.avg_precision - 0.5).abs() < 1e-12);
        assert!((q.avg_recall - 1.0).abs() < 1e-12);
        assert!((q.quality - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_cluster_penalizes_recall_side_only_partially() {
        // One real cluster split into two found halves: precision of each
        // found cluster is 1; recall of the real cluster via its dominant
        // half is 1/2.
        let real = clustering(8, 2, &[(&[0, 1, 2, 3], &[0])]);
        let found = clustering(8, 2, &[(&[0, 1], &[0]), (&[2, 3], &[0])]);
        let q = quality(&found, &real);
        assert!((q.avg_precision - 1.0).abs() < 1e-12);
        assert!((q.avg_recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noise_points_do_not_count_as_shared() {
        // Found marks everything one cluster; real has noise: the shared
        // mass only counts real-clustered points.
        let real = clustering(6, 2, &[(&[0, 1, 2], &[0])]); // 3,4,5 noise
        let found = clustering(6, 2, &[(&[0, 1, 2, 3, 4, 5], &[0])]);
        let q = quality(&found, &real);
        assert!((q.avg_precision - 0.5).abs() < 1e-12);
        assert!((q.avg_recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subspace_quality_scores_axis_overlap_of_dominant_pairs() {
        // Points match perfectly; axes only half-overlap.
        let real = clustering(6, 4, &[(&[0, 1, 2], &[0, 1])]);
        let found = clustering(6, 4, &[(&[0, 1, 2], &[1, 2])]);
        let sq = subspace_quality(&found, &real);
        // |{1}|/|{1,2}| = 0.5 precision; |{1}|/|{0,1}| = 0.5 recall.
        assert!((sq.avg_precision - 0.5).abs() < 1e-12);
        assert!((sq.avg_recall - 0.5).abs() < 1e-12);
        assert!((sq.quality - 0.5).abs() < 1e-12);
        // Point-based Quality stays perfect.
        assert!((quality(&found, &real).quality - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_pairing_picks_largest_overlap() {
        let real = clustering(10, 2, &[(&[0, 1, 2, 3], &[0]), (&[4, 5], &[1])]);
        let found = clustering(10, 2, &[(&[2, 3, 4, 5], &[0])]);
        let q = quality(&found, &real);
        // Found cluster shares 2 with each real cluster → dominant is the
        // first by tie-break; precision 2/4.
        assert!((q.precision_matches[0].score - 0.5).abs() < 1e-12);
        // Real cluster 0: dominant found shares 2 of 4 → recall 0.5;
        // real cluster 1: shares 2 of 2 → recall 1.0.
        assert!((q.avg_recall - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different datasets")]
    fn mismatched_sizes_panic() {
        let a = SubspaceClustering::empty(5, 2);
        let b = SubspaceClustering::empty(6, 2);
        quality(&a, &b);
    }
}
