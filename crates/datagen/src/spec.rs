//! Declarative description of a synthetic dataset.

use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::{Error, Result};

/// Specification of one synthetic dataset, mirroring the knobs the paper
/// varies: dimensionality, number of points, number of correlation clusters,
/// noise percentile and (for the `*_r` group) rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Dataset name as used in the paper (e.g. `"14d"`, `"250k"`, `"10d_r"`).
    pub name: String,
    /// Space dimensionality `d`.
    pub dims: usize,
    /// Total number of points `η` (clusters + noise).
    pub n_points: usize,
    /// Number of correlation clusters embedded.
    pub n_clusters: usize,
    /// Fraction of points drawn uniformly as noise, in `[0, 1)`.
    pub noise_fraction: f64,
    /// Number of random plane rotations applied after generation
    /// (0 = axis-parallel subspaces; the paper's rotated group uses 4).
    pub rotations: usize,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A compact constructor with no rotations.
    pub fn new(
        name: impl Into<String>,
        dims: usize,
        n_points: usize,
        n_clusters: usize,
        noise_fraction: f64,
        seed: u64,
    ) -> Self {
        SyntheticSpec {
            name: name.into(),
            dims,
            n_points,
            n_clusters,
            noise_fraction,
            rotations: 0,
            seed,
        }
    }

    /// Same spec with `rotations` random plane rotations and a `_r` suffix.
    pub fn rotated(mut self, rotations: usize) -> Self {
        self.rotations = rotations;
        self.name.push_str("_r");
        self
    }

    /// Scales the number of points by `factor` (≥ 0), keeping at least one
    /// point; used by the experiment harness to run paper-shaped workloads
    /// at laptop scale.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.n_points = ((self.n_points as f64 * factor).round() as usize).max(1);
        self
    }

    /// Number of noise points implied by the spec.
    pub fn n_noise(&self) -> usize {
        (self.n_points as f64 * self.noise_fraction).round() as usize
    }

    /// Number of clustered points implied by the spec.
    pub fn n_clustered(&self) -> usize {
        self.n_points - self.n_noise()
    }

    /// Checks that [`generate`](crate::generate) can honour the spec: 2 to
    /// [`MAX_DIMS`] axes, at least one point, a noise fraction in `[0, 1)`
    /// and at least one clustered point per cluster. Draws no random
    /// numbers.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        let invalid = |name, message| Err(Error::InvalidParameter { name, message });
        if !(2..=MAX_DIMS).contains(&self.dims) {
            return invalid(
                "dims",
                format!("must be in [2, {MAX_DIMS}], got {}", self.dims),
            );
        }
        if self.n_points == 0 {
            return invalid("points", "must be at least 1".to_string());
        }
        if !(0.0..1.0).contains(&self.noise_fraction) {
            return invalid(
                "noise",
                format!("must be in [0, 1), got {}", self.noise_fraction),
            );
        }
        if self.n_clustered() < self.n_clusters {
            return invalid(
                "clusters",
                format!(
                    "{} clusters need at least as many clustered points, got {}",
                    self.n_clusters,
                    self.n_clustered()
                ),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_split_adds_up() {
        let s = SyntheticSpec::new("t", 10, 1000, 5, 0.15, 7);
        assert_eq!(s.n_noise(), 150);
        assert_eq!(s.n_clustered(), 850);
        assert_eq!(s.n_noise() + s.n_clustered(), s.n_points);
    }

    #[test]
    fn rotated_renames() {
        let s = SyntheticSpec::new("10d", 10, 100, 2, 0.1, 7).rotated(4);
        assert_eq!(s.name, "10d_r");
        assert_eq!(s.rotations, 4);
    }

    #[test]
    fn every_paper_spec_validates() {
        let groups = [
            crate::first_group(),
            crate::points_group(),
            crate::clusters_group(),
            crate::dims_group(),
            crate::noise_group(),
            crate::rotated_group(),
        ];
        for spec in groups.iter().flatten().chain([&crate::base_14d()]) {
            assert!(spec.validate().is_ok(), "{}", spec.name);
        }
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let good = SyntheticSpec::new("t", 10, 1000, 5, 0.15, 7);
        let with = |edit: fn(&mut SyntheticSpec)| {
            let mut spec = good.clone();
            edit(&mut spec);
            spec
        };
        let edges = [
            with(|_| {}),
            with(|s| s.dims = 2),
            with(|s| s.dims = MAX_DIMS),
            with(|s| s.n_clusters = 0),
            with(|s| s.noise_fraction = 0.0),
            with(|s| (s.n_points, s.n_clusters, s.noise_fraction) = (1, 1, 0.0)),
        ];
        for spec in &edges {
            assert!(spec.validate().is_ok(), "{spec:?}");
        }
        let bad = [
            ("dims", with(|s| s.dims = 0)),
            ("dims", with(|s| s.dims = 1)),
            ("dims", with(|s| s.dims = MAX_DIMS + 1)),
            ("points", with(|s| s.n_points = 0)),
            ("noise", with(|s| s.noise_fraction = 1.0)),
            ("noise", with(|s| s.noise_fraction = 1.5)),
            ("noise", with(|s| s.noise_fraction = -0.1)),
            ("noise", with(|s| s.noise_fraction = f64::NAN)),
            ("clusters", with(|s| (s.n_points, s.n_clusters) = (10, 20))),
        ];
        for (field, spec) in &bad {
            match spec.validate() {
                Err(Error::InvalidParameter { name, .. }) => assert_eq!(name, *field, "{spec:?}"),
                other => panic!("{spec:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn scaling_rounds_and_clamps() {
        let s = SyntheticSpec::new("t", 5, 100, 2, 0.0, 7).scaled(0.25);
        assert_eq!(s.n_points, 25);
        let tiny = SyntheticSpec::new("t", 5, 1, 1, 0.0, 7).scaled(0.01);
        assert_eq!(tiny.n_points, 1);
    }
}
