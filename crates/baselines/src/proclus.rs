//! PROCLUS — projected clustering by k-medoids (Aggarwal et al., SIGMOD '99).
//!
//! Three phases, as in the original paper:
//!
//! 1. **Initialization** — draw a sample, greedily pick a well-scattered
//!    candidate medoid set (each new candidate maximizes its distance to the
//!    ones already chosen).
//! 2. **Iteration** — from the current k medoids, compute each medoid's
//!    locality (points within its distance to the nearest other medoid),
//!    derive per-medoid dimension sets by z-scored average distances (l·k
//!    dimensions total, at least 2 per medoid), assign every point by
//!    Manhattan *segmental* distance in the medoid's dimensions, and replace
//!    the worst medoid with a random candidate whenever that improves the
//!    objective (average within-cluster dispersion).
//! 3. **Refinement** — recompute the dimension sets from the final clusters,
//!    reassign, and mark as noise every point farther from its medoid than
//!    that medoid's sphere of influence.
//!
//! The paper supplies the true number of clusters `k` and the average
//! cluster dimensionality `l` (its two required user parameters).

use mrcc_common::{AxisMask, Dataset, Error, Result, SubspaceCluster, SubspaceClustering, NOISE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SubspaceClusterer;

/// Configuration for [`Proclus`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProclusConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Average cluster dimensionality `l` (dimensions picked = `l·k`).
    pub avg_dims: usize,
    /// Candidate medoid pool size factor (`B = pool_factor · k`).
    pub pool_factor: usize,
    /// Iteration budget of the hill-climbing phase.
    pub max_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ProclusConfig {
    /// Defaults mirroring the original paper's suggestions.
    pub fn new(k: usize, avg_dims: usize) -> Self {
        ProclusConfig {
            k,
            avg_dims,
            pool_factor: 4,
            max_iters: 30,
            seed: 0x5EED,
        }
    }
}

/// The PROCLUS method.
#[derive(Debug, Clone)]
pub struct Proclus {
    config: ProclusConfig,
}

impl Proclus {
    /// Creates the method.
    pub fn new(config: ProclusConfig) -> Self {
        Proclus { config }
    }
}

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Manhattan segmental distance over a dimension subset.
fn segmental(a: &[f64], b: &[f64], dims: &AxisMask) -> f64 {
    let c = dims.count();
    if c == 0 {
        return f64::INFINITY;
    }
    dims.iter().map(|j| (a[j] - b[j]).abs()).sum::<f64>() / c as f64
}

/// Greedy far-apart candidate selection from the index pool.
fn greedy_candidates(ds: &Dataset, pool: &[usize], count: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(count);
    chosen.push(pool[rng.gen_range(0..pool.len())]);
    let mut dist: Vec<f64> = pool
        .iter()
        .map(|&i| l1(ds.point(i), ds.point(chosen[0])))
        .collect();
    while chosen.len() < count.min(pool.len()) {
        let (arg, _) = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty pool");
        let next = pool[arg];
        if chosen.contains(&next) {
            break; // all remaining are duplicates / zero-distance
        }
        chosen.push(next);
        for (slot, &i) in dist.iter_mut().zip(pool) {
            let d = l1(ds.point(i), ds.point(next));
            if d < *slot {
                *slot = d;
            }
        }
    }
    chosen
}

/// Per-medoid dimension selection: smallest z-scored average locality
/// distances, `l·k` picks in total, at least 2 per medoid.
fn find_dimensions(
    ds: &Dataset,
    medoids: &[usize],
    localities: &[Vec<usize>],
    total_dims: usize,
) -> Vec<AxisMask> {
    let d = ds.dims();
    let k = medoids.len();
    // X[i][j]: average |x_j − m_j| over the locality of medoid i.
    let mut scores: Vec<(f64, usize, usize)> = Vec::with_capacity(k * d); // (z, i, j)
    for (i, &m) in medoids.iter().enumerate() {
        let mp = ds.point(m);
        let mut x = vec![0.0f64; d];
        let count = localities[i].len().max(1);
        for &p in &localities[i] {
            let pp = ds.point(p);
            for (slot, (a, b)) in x.iter_mut().zip(pp.iter().zip(mp)) {
                *slot += (a - b).abs();
            }
        }
        for v in &mut x {
            *v /= count as f64;
        }
        let mean = x.iter().sum::<f64>() / d as f64;
        let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
        let sd = var.sqrt().max(1e-12);
        for (j, &xv) in x.iter().enumerate() {
            scores.push(((xv - mean) / sd, i, j));
        }
    }
    scores.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite z-scores"));

    let mut masks = vec![AxisMask::empty(d); k];
    let mut picked = vec![0usize; k];
    // Two guaranteed picks per medoid (smallest z first).
    for &(_, i, j) in &scores {
        if picked[i] < 2 {
            masks[i].insert(j);
            picked[i] += 1;
        }
    }
    let mut total = picked.iter().sum::<usize>();
    for &(_, i, j) in &scores {
        if total >= total_dims.max(2 * k) {
            break;
        }
        if !masks[i].contains(j) {
            masks[i].insert(j);
            picked[i] += 1;
            total += 1;
        }
    }
    masks
}

/// Assigns every point to its closest medoid by segmental distance.
fn assign(ds: &Dataset, medoids: &[usize], masks: &[AxisMask]) -> Vec<usize> {
    ds.iter()
        .map(|p| {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, &m) in medoids.iter().enumerate() {
                let dist = segmental(p, ds.point(m), &masks[i]);
                if dist < best_d {
                    best_d = dist;
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Objective: average segmental dispersion of points around their medoid.
fn evaluate(ds: &Dataset, medoids: &[usize], masks: &[AxisMask], assignment: &[usize]) -> f64 {
    let mut total = 0.0;
    for (i, p) in ds.iter().enumerate() {
        let c = assignment[i];
        total += segmental(p, ds.point(medoids[c]), &masks[c]);
    }
    total / ds.len() as f64
}

/// Localities: points within each medoid's distance to its nearest fellow
/// medoid (full-dimensional L1).
fn localities(ds: &Dataset, medoids: &[usize]) -> Vec<Vec<usize>> {
    let k = medoids.len();
    let mut delta = vec![f64::INFINITY; k];
    for i in 0..k {
        for j in 0..k {
            if i != j {
                let d = l1(ds.point(medoids[i]), ds.point(medoids[j]));
                if d < delta[i] {
                    delta[i] = d;
                }
            }
        }
    }
    let mut loc = vec![Vec::new(); k];
    for (p, point) in ds.iter().enumerate() {
        for i in 0..k {
            if l1(point, ds.point(medoids[i])) <= delta[i] {
                loc[i].push(p);
            }
        }
    }
    loc
}

impl SubspaceClusterer for Proclus {
    fn name(&self) -> &'static str {
        "PROCLUS"
    }

    fn fit(&self, ds: &Dataset) -> Result<SubspaceClustering> {
        if ds.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let (n, d, k) = (ds.len(), ds.dims(), self.config.k);
        if k == 0 || k > n {
            return Err(Error::InvalidParameter {
                name: "k",
                message: format!("k={k} invalid for {n} points"),
            });
        }
        if self.config.avg_dims == 0 || self.config.avg_dims > d {
            return Err(Error::InvalidParameter {
                name: "avg_dims",
                message: format!("l={} invalid for {d} dims", self.config.avg_dims),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let total_dims = self.config.avg_dims * k;

        // Initialization: candidate pool from a sample.
        let pool: Vec<usize> = (0..n).collect();
        let candidates =
            greedy_candidates(ds, &pool, (self.config.pool_factor * k).min(n), &mut rng);
        let mut medoids: Vec<usize> = candidates[..k.min(candidates.len())].to_vec();
        while medoids.len() < k {
            medoids.push(rng.gen_range(0..n)); // degenerate tiny inputs
        }

        // Hill climbing: replace the worst medoid with a random candidate.
        let mut best_obj = f64::INFINITY;
        let mut best_state: Option<(Vec<usize>, Vec<AxisMask>, Vec<usize>)> = None;
        for _ in 0..self.config.max_iters {
            let loc = localities(ds, &medoids);
            let masks = find_dimensions(ds, &medoids, &loc, total_dims);
            let assignment = assign(ds, &medoids, &masks);
            let obj = evaluate(ds, &medoids, &masks, &assignment);
            if obj < best_obj {
                best_obj = obj;
                best_state = Some((medoids.clone(), masks, assignment.clone()));
            } else if let Some((m, _, _)) = &best_state {
                medoids = m.clone(); // revert to the best known set
            }
            // Replace the medoid of the smallest cluster.
            let mut counts = vec![0usize; k];
            for &c in &assignment {
                counts[c] += 1;
            }
            let worst = counts
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .expect("k >= 1");
            let replacement = candidates[rng.gen_range(0..candidates.len())];
            if !medoids.contains(&replacement) {
                medoids[worst] = replacement;
            }
        }
        let (medoids, _masks, _) = best_state.expect("at least one iteration ran");

        // Refinement: dimensions from the formed clusters, one reassignment,
        // then outlier marking by each medoid's sphere of influence.
        let loc = localities(ds, &medoids);
        let masks = find_dimensions(ds, &medoids, &loc, total_dims);
        let assignment = assign(ds, &medoids, &masks);

        // Sphere of influence: the medoid's segmental distance to the
        // nearest other medoid (in its own dimensions).
        let mut influence = vec![f64::INFINITY; k];
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    let dd = segmental(ds.point(medoids[i]), ds.point(medoids[j]), &masks[i]);
                    if dd < influence[i] {
                        influence[i] = dd;
                    }
                }
            }
        }
        let mut labels = vec![NOISE; n];
        for (i, p) in ds.iter().enumerate() {
            let c = assignment[i];
            if segmental(p, ds.point(medoids[c]), &masks[c]) <= influence[c] {
                labels[i] = c as i32;
            }
        }

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &l) in labels.iter().enumerate() {
            if l != NOISE {
                members[l as usize].push(i);
            }
        }
        let clusters: Vec<SubspaceCluster> = members
            .into_iter()
            .zip(masks)
            .filter(|(pts, _)| !pts.is_empty())
            .map(|(pts, mask)| SubspaceCluster::new(pts, mask))
            .collect();
        Ok(SubspaceClustering::new(n, d, clusters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    /// Two 2-of-4-dimensional projected clusters plus noise.
    fn projected_blobs() -> Dataset {
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for _ in 0..150 {
            rows.push([
                0.25 + 0.02 * (next() - 0.5),
                0.70 + 0.02 * (next() - 0.5),
                next() * 0.99,
                next() * 0.99,
            ]);
            rows.push([
                next() * 0.99,
                next() * 0.99,
                0.30 + 0.02 * (next() - 0.5),
                0.80 + 0.02 * (next() - 0.5),
            ]);
        }
        for _ in 0..60 {
            rows.push([next() * 0.99, next() * 0.99, next() * 0.99, next() * 0.99]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn finds_two_projected_clusters() {
        let ds = projected_blobs();
        let c = Proclus::new(ProclusConfig::new(2, 2)).fit(&ds).unwrap();
        assert_eq!(c.len(), 2);
        // The two clusters split the even/odd construction with decent
        // purity.
        let labels = c.labels();
        let mut even = [0usize; 2];
        let mut odd = [0usize; 2];
        for (i, &l) in labels.iter().enumerate() {
            if l >= 0 {
                if i % 2 == 0 {
                    even[l as usize] += 1;
                } else {
                    odd[l as usize] += 1;
                }
            }
        }
        let purity = (even[0].max(even[1]) + odd[0].max(odd[1])) as f64
            / (even[0] + even[1] + odd[0] + odd[1]) as f64;
        assert!(purity > 0.85, "purity {purity:.3}");
    }

    #[test]
    fn dimension_sets_have_at_least_two_dims() {
        let ds = projected_blobs();
        let c = Proclus::new(ProclusConfig::new(2, 2)).fit(&ds).unwrap();
        for cl in c.clusters() {
            assert!(cl.axes.count() >= 2);
        }
    }

    #[test]
    fn deterministic() {
        let ds = projected_blobs();
        let a = Proclus::new(ProclusConfig::new(2, 2)).fit(&ds).unwrap();
        let b = Proclus::new(ProclusConfig::new(2, 2)).fit(&ds).unwrap();
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn rejects_bad_parameters() {
        let ds = projected_blobs();
        assert!(Proclus::new(ProclusConfig::new(0, 2)).fit(&ds).is_err());
        assert!(Proclus::new(ProclusConfig::new(2, 0)).fit(&ds).is_err());
        assert!(Proclus::new(ProclusConfig::new(2, 5)).fit(&ds).is_err());
    }

    #[test]
    fn segmental_distance_averages_over_dims() {
        let a = [0.0, 0.0, 0.0];
        let b = [0.3, 0.6, 0.9];
        let mask = AxisMask::from_axes(3, [0, 2]);
        assert!((segmental(&a, &b, &mask) - 0.6).abs() < 1e-12);
        assert!(exactly(
            segmental(&a, &b, &AxisMask::empty(3)),
            f64::INFINITY
        ));
    }
}
