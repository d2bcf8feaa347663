//! STING — STatistical INformation Grid (Wang, Yang, Muntz, VLDB 1997).
//!
//! The method the MrCC paper names as "a basis to our work": a hierarchical
//! grid whose cells store statistical summaries (count, per-axis mean /
//! min / max), processed top-down. STING was designed for 2-dimensional GIS
//! data; in clustering mode the bottom-level cells whose density exceeds a
//! threshold are marked relevant and connected components of relevant cells
//! become clusters (all axes relevant — STING has no subspace notion).
//!
//! Included in the extended comparison precisely because of what it lacks:
//! as dimensionality grows, a fixed-resolution full-space grid starves
//! (every cell's count approaches 0 or 1) — the failure mode MrCC's
//! multi-resolution, statistically-tested search is built to avoid.

use std::collections::HashMap;

use mrcc_common::{AxisMask, Dataset, Error, Result, SubspaceCluster, SubspaceClustering};

use crate::SubspaceClusterer;

/// Configuration for [`Sting`].
#[derive(Debug, Clone, PartialEq)]
pub struct StingConfig {
    /// Hierarchy depth: the bottom level splits each axis into `2^depth`
    /// intervals (STING's default hierarchy bottoms out near 2^6 cells per
    /// axis on GIS data; high-dimensional data needs it far coarser).
    pub depth: u32,
    /// A bottom-level cell is *relevant* when its count is at least
    /// `density_factor` times the expected count under uniformity.
    pub density_factor: f64,
    /// Minimum points for a reported cluster.
    pub min_cluster_size: usize,
}

impl Default for StingConfig {
    fn default() -> Self {
        StingConfig {
            depth: 3,
            density_factor: 2.0,
            min_cluster_size: 8,
        }
    }
}

/// Statistical summary of one grid cell (STING's per-cell parameters).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Point count.
    pub count: usize,
    /// Per-axis running sum (for the mean).
    sum: Vec<f64>,
    /// Per-axis minimum.
    pub min: Vec<f64>,
    /// Per-axis maximum.
    pub max: Vec<f64>,
}

impl CellSummary {
    fn new(d: usize) -> Self {
        CellSummary {
            count: 0,
            sum: vec![0.0; d],
            min: vec![f64::INFINITY; d],
            max: vec![f64::NEG_INFINITY; d],
        }
    }

    fn add(&mut self, p: &[f64]) {
        self.count += 1;
        for (j, &v) in p.iter().enumerate() {
            self.sum[j] += v;
            if v < self.min[j] {
                self.min[j] = v;
            }
            if v > self.max[j] {
                self.max[j] = v;
            }
        }
    }

    /// Per-axis mean of the cell's points.
    pub fn mean(&self, j: usize) -> f64 {
        self.sum[j] / self.count.max(1) as f64
    }
}

/// The STING method (clustering mode).
#[derive(Debug, Clone, Default)]
pub struct Sting {
    config: StingConfig,
}

impl Sting {
    /// Creates the method.
    pub fn new(config: StingConfig) -> Self {
        Sting { config }
    }
}

impl SubspaceClusterer for Sting {
    fn name(&self) -> &'static str {
        "STING"
    }

    fn fit(&self, ds: &Dataset) -> Result<SubspaceClustering> {
        if ds.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let cfg = &self.config;
        if cfg.depth == 0 || cfg.depth > 16 {
            return Err(Error::InvalidParameter {
                name: "depth",
                message: format!("depth must be in [1,16], got {}", cfg.depth),
            });
        }
        if cfg.density_factor <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "density_factor",
                message: format!("must be positive, got {}", cfg.density_factor),
            });
        }
        let (n, d) = (ds.len(), ds.dims());
        let bins = 1u64 << cfg.depth;

        // Bottom-level summaries (upper levels of STING's hierarchy are
        // aggregations of these; clustering only consults the bottom).
        let mut cells: HashMap<Vec<u64>, CellSummary> = HashMap::new();
        let mut members: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        let mut key = vec![0u64; d];
        for (i, p) in ds.iter().enumerate() {
            for (slot, &v) in key.iter_mut().zip(p) {
                *slot = ((v * bins as f64) as u64).min(bins - 1);
            }
            cells
                .entry(key.clone())
                .or_insert_with(|| CellSummary::new(d))
                .add(p);
            members.entry(key.clone()).or_default().push(i);
        }

        // Relevance: count ≥ density_factor × uniform expectation. The
        // expectation uses materialized-cell granularity capped at the full
        // grid (in high d the full grid dwarfs η and every cell "passes"
        // with expectation < 1 — STING's curse-of-dimensionality failure,
        // kept observable by flooring the expectation at 1).
        let total_cells = (bins as f64).powi(d as i32).min(1e18);
        let expectation = (n as f64 / total_cells).max(1.0);
        let threshold = cfg.density_factor * expectation;
        let relevant: Vec<&Vec<u64>> = cells
            .iter()
            .filter(|(_, s)| s.count as f64 >= threshold)
            .map(|(k, _)| k)
            .collect();

        // Connected components of relevant cells (face adjacency).
        let mut sorted: Vec<&Vec<u64>> = relevant.clone();
        sorted.sort();
        let index: HashMap<&Vec<u64>, usize> =
            sorted.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut seen = vec![false; sorted.len()];
        let mut clusters: Vec<SubspaceCluster> = Vec::new();
        for start in 0..sorted.len() {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let mut stack = vec![start];
            let mut pts: Vec<usize> = Vec::new();
            while let Some(u) = stack.pop() {
                pts.extend(&members[sorted[u]]);
                let base = sorted[u];
                for j in 0..d {
                    for delta in [-1i64, 1] {
                        let nb = base[j] as i64 + delta;
                        if nb < 0 || nb as u64 >= bins {
                            continue;
                        }
                        let mut neighbor = base.clone();
                        neighbor[j] = nb as u64;
                        if let Some(&ni) = index.get(&neighbor) {
                            if !seen[ni] {
                                seen[ni] = true;
                                stack.push(ni);
                            }
                        }
                    }
                }
            }
            if pts.len() >= cfg.min_cluster_size {
                clusters.push(SubspaceCluster::new(pts, AxisMask::full(d)));
            }
        }
        // Deterministic ordering: largest first.
        clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.points.cmp(&b.points)));
        Ok(SubspaceClustering::new(n, d, clusters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    fn blobs_2d() -> Dataset {
        let mut state = 0x5714u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for _ in 0..300 {
            rows.push([0.20 + 0.04 * (next() - 0.5), 0.30 + 0.04 * (next() - 0.5)]);
            rows.push([0.75 + 0.04 * (next() - 0.5), 0.80 + 0.04 * (next() - 0.5)]);
        }
        for _ in 0..100 {
            rows.push([next() * 0.99, next() * 0.99]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn separates_low_dimensional_blobs() {
        // STING's home turf: 2-d GIS-like data.
        let ds = blobs_2d();
        let c = Sting::default().fit(&ds).unwrap();
        assert_eq!(c.len(), 2, "expected both blobs");
        for cl in c.clusters() {
            let even = cl.points.iter().filter(|&&i| i < 600 && i % 2 == 0).count();
            let odd = cl.points.iter().filter(|&&i| i < 600 && i % 2 == 1).count();
            let purity = even.max(odd) as f64 / (even + odd).max(1) as f64;
            assert!(purity > 0.95, "purity {purity}");
        }
    }

    #[test]
    fn all_axes_are_marked_relevant() {
        // STING has no subspace concept.
        let ds = blobs_2d();
        let c = Sting::default().fit(&ds).unwrap();
        for cl in c.clusters() {
            assert_eq!(cl.axes.count(), 2);
        }
    }

    #[test]
    fn starves_in_high_dimensions() {
        // A 5-of-10-dimensional subspace cluster: the full-space grid cannot
        // concentrate it, so STING misses it — the exact failure mode the
        // MrCC paper builds against.
        use mrcc_datagen::{generate, SyntheticSpec};
        let synth = generate(&SyntheticSpec::new("hi-d", 10, 3_000, 1, 0.2, 3));
        let c = Sting::default().fit(&synth.dataset).unwrap();
        let coverage = c.n_clustered() as f64 / synth.dataset.len() as f64;
        // Either it finds nothing or it floods (everything one cluster);
        // what it cannot do is isolate the cluster with precision.
        if !c.is_empty() {
            use mrcc_eval::quality;
            let q = quality(&c, &synth.ground_truth);
            assert!(
                q.quality < 0.8,
                "STING unexpectedly solved a subspace problem: {} (coverage {coverage})",
                q.quality
            );
        }
    }

    #[test]
    fn summary_statistics_accumulate() {
        let mut s = CellSummary::new(2);
        s.add(&[0.2, 0.8]);
        s.add(&[0.4, 0.6]);
        assert_eq!(s.count, 2);
        assert!((s.mean(0) - 0.3).abs() < 1e-12);
        assert!(exactly(s.min[1], 0.6));
        assert!(exactly(s.max[1], 0.8));
    }

    #[test]
    fn rejects_bad_parameters() {
        let ds = blobs_2d();
        assert!(Sting::new(StingConfig {
            depth: 0,
            ..Default::default()
        })
        .fit(&ds)
        .is_err());
        assert!(Sting::new(StingConfig {
            density_factor: 0.0,
            ..Default::default()
        })
        .fit(&ds)
        .is_err());
    }

    #[test]
    fn deterministic() {
        let ds = blobs_2d();
        let a = Sting::default().fit(&ds).unwrap();
        let b = Sting::default().fit(&ds).unwrap();
        assert_eq!(a.labels(), b.labels());
    }
}
