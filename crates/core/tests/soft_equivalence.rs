//! Flat soft-membership pass ↔ per-point reference equivalence.
//!
//! `MrCCResult::soft_memberships` computes every point's weights in one flat
//! pass into a compressed-sparse-row `SoftClustering`. It promises exactly
//! the output of the per-point algorithm it replaced, kept here as the
//! private [`soft_memberships_reference`]: bit-identical weights, compared
//! through [`f64::to_bits`], in the same order. The reference shares no code
//! with the pass it checks: it tests containment with
//! [`mrcc_common::BoundingBox::contains`] and counts box populations by
//! scanning the dataset, where the pass reads the fit's `MergeCache`.

use mrcc::{MrCC, MrCCResult};
use mrcc_common::{Dataset, NOISE};
use mrcc_datagen::{generate, rotated_group};

/// The superseded path: one `Vec` of `(cluster, weight)` per point. Per
/// cluster, the densest containing member box scores the point (a later
/// equal density wins); the scores go through a softmax, summed in
/// ascending cluster order, and the weights are stably sorted by
/// descending weight.
fn soft_memberships_reference(result: &MrCCResult, dataset: &Dataset) -> Vec<Vec<(usize, f64)>> {
    let density: Vec<f64> = result
        .beta_clusters
        .iter()
        .map(|b| {
            let inside = dataset.iter().filter(|p| b.bounds.contains(p)).count();
            let mut log_volume = 0.0f64;
            for j in b.axes.iter() {
                log_volume += b.bounds.extent(j).max(1e-12).ln();
            }
            let delta = b.axes.count().max(1) as f64;
            (inside.max(1) as f64).ln() - log_volume / delta
        })
        .collect();
    dataset
        .iter()
        .map(|p| {
            let mut candidates: Vec<(usize, f64)> = Vec::new();
            for (k, cluster) in result.clusters.iter().enumerate() {
                let best = cluster
                    .beta_indices
                    .iter()
                    .filter(|&&m| result.beta_clusters[m].bounds.contains(p))
                    .map(|&m| density[m])
                    .max_by(|a, b| a.partial_cmp(b).unwrap());
                if let Some(best) = best {
                    candidates.push((k, best));
                }
            }
            if candidates.is_empty() {
                return candidates;
            }
            let max_score = candidates
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut weights: Vec<(usize, f64)> = candidates
                .into_iter()
                .map(|(k, s)| (k, (s - max_score).exp()))
                .collect();
            let total: f64 = weights.iter().map(|&(_, w)| w).sum();
            for (_, w) in &mut weights {
                *w /= total;
            }
            weights.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            weights
        })
        .collect()
}

/// Fits `dataset`, checks the flat pass against the reference bit for bit
/// and returns the number of shared points.
fn assert_equivalent(dataset: &Dataset, context: &str) -> usize {
    let result = MrCC::default().fit(dataset).unwrap();
    result.check_invariants();
    let soft = result.soft_memberships(dataset);
    let reference = soft_memberships_reference(&result, dataset);
    assert_eq!(soft.n_points(), reference.len(), "{context}: point count");
    assert_eq!(
        soft.n_clusters(),
        result.n_clusters(),
        "{context}: clusters"
    );
    let bits = |row: &[(usize, f64)]| -> Vec<(usize, u64)> {
        row.iter().map(|&(k, w)| (k, w.to_bits())).collect()
    };
    for (i, want) in reference.iter().enumerate() {
        assert_eq!(
            bits(soft.memberships(i)),
            bits(want),
            "{context}: memberships of point {i}"
        );
    }
    let shared = reference.iter().filter(|m| m.len() > 1).count();
    assert_eq!(soft.n_shared_points(), shared, "{context}: shared points");
    let hardened: Vec<i32> = reference
        .iter()
        .map(|m| m.first().map_or(NOISE, |&(k, _)| k as i32))
        .collect();
    assert_eq!(soft.harden(), hardened, "{context}: hardened labels");
    shared
}

/// The `soft_clustering` example's data: a rod on axes {0, 1} crossing a
/// slab on axis 2, plus uniform noise.
fn rod_and_slab() -> Dataset {
    let mut rows: Vec<[f64; 3]> = Vec::new();
    let mut state = 0xCAFEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..3000 {
        rows.push([
            0.32 + 0.03 * (next() - 0.5),
            0.32 + 0.03 * (next() - 0.5),
            next() * 0.99,
        ]);
        rows.push([next() * 0.99, next() * 0.99, 0.70 + 0.03 * (next() - 0.5)]);
    }
    for _ in 0..900 {
        rows.push([next() * 0.99, next() * 0.99, next() * 0.99]);
    }
    Dataset::from_rows(&rows).unwrap()
}

#[test]
fn rod_and_slab_weights_are_bit_identical() {
    let shared = assert_equivalent(&rod_and_slab(), "rod and slab");
    // Shared points run the multi-candidate softmax and the weight sort.
    assert!(shared > 0, "no shared points");
}

#[test]
fn rotated_12d_weights_are_bit_identical() {
    let spec = rotated_group()
        .into_iter()
        .find(|s| s.name == "12d_r")
        .unwrap()
        .scaled(0.25);
    let mut ds = generate(&spec).dataset;
    ds.normalize_unit().unwrap();
    let _ = assert_equivalent(&ds, "12d_r at 25 %");
}

#[test]
fn all_noise_fit_has_no_memberships() {
    let mut state = 0x0123_4567u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<[f64; 4]> = (0..2_000)
        .map(|_| [next(), next(), next(), next()])
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let result = MrCC::default().fit(&ds).unwrap();
    assert_eq!(result.n_beta_clusters(), 0, "uniform data found β-clusters");
    let shared = assert_equivalent(&ds, "all noise");
    assert_eq!(shared, 0);
    let soft = result.soft_memberships(&ds);
    assert!((0..ds.len()).all(|i| soft.memberships(i).is_empty()));
}
