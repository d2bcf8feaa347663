//! Axis-aligned hyper-rectangles.
//!
//! MrCC describes every β-cluster by per-axis lower/upper bounds (the matrices
//! `L` and `U` of Section III-B); irrelevant axes span the whole `[0,1]`
//! range. Overlap between boxes drives both the "shares data space" check of
//! Algorithm 2 and the β-cluster merge of Algorithm 3.

/// A closed axis-aligned box `[lower_j, upper_j]` for every axis `e_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl BoundingBox {
    /// The unit box `[0,1]^d` (the paper's default bounds for irrelevant axes).
    pub fn unit(dims: usize) -> Self {
        BoundingBox {
            lower: vec![0.0; dims],
            upper: vec![1.0; dims],
        }
    }

    /// Builds a box from per-axis bounds.
    ///
    /// # Panics
    /// Panics when lengths differ or any `lower_j > upper_j` — the clustering
    /// code only ever produces well-formed boxes, so this is a bug guard.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bounds length mismatch");
        for (j, (l, u)) in lower.iter().zip(&upper).enumerate() {
            assert!(l <= u, "axis {j}: lower {l} > upper {u}");
        }
        BoundingBox { lower, upper }
    }

    /// Dimensionality of the box.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lower.len()
    }

    /// Lower bound on axis `j` (`L[k][j]`).
    ///
    /// # Panics
    /// Panics when `j >= self.dims()`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn lower(&self, j: usize) -> f64 {
        self.lower[j]
    }

    /// Upper bound on axis `j` (`U[k][j]`).
    ///
    /// # Panics
    /// Panics when `j >= self.dims()`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn upper(&self, j: usize) -> f64 {
        self.upper[j]
    }

    /// Mutable lower bound (used while refining β-cluster bounds).
    ///
    /// # Panics
    /// Panics when `j >= self.dims()`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn set_lower(&mut self, j: usize, v: f64) {
        self.lower[j] = v;
    }

    /// Mutable upper bound.
    ///
    /// # Panics
    /// Panics when `j >= self.dims()`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn set_upper(&mut self, j: usize, v: f64) {
        self.upper[j] = v;
    }

    /// The paper's share-space predicate: true iff
    /// `U[k'][j] ≥ L[k''][j] ∧ L[k'][j] ≤ U[k''][j]` for every axis `e_j`.
    ///
    /// # Panics
    /// Panics when the boxes have different dimensionality — in release
    /// builds too; a zip over mismatched bounds would silently truncate to
    /// the shorter box and report geometric nonsense.
    pub fn overlaps(&self, other: &BoundingBox) -> bool {
        assert_eq!(
            self.dims(),
            other.dims(),
            "overlaps: box dimensionality mismatch"
        );
        self.lower
            .iter()
            .zip(&self.upper)
            .zip(other.lower.iter().zip(&other.upper))
            .all(|((&l1, &u1), (&l2, &u2))| u1 >= l2 && l1 <= u2)
    }

    /// Strict variant of [`BoundingBox::overlaps`]: requires an interior
    /// (positive-measure) intersection on every axis — boxes that merely
    /// touch at a face do not count.
    ///
    /// MrCC produces bounds aligned to grid-cell boundaries, so *distinct*
    /// adjacent clusters constantly share a face by construction; the
    /// paper's `≥` formulation would chain-merge them even though their
    /// intersection has zero volume. Share-space checks therefore use this
    /// strict predicate (see DESIGN.md).
    ///
    /// # Panics
    /// Panics when the boxes have different dimensionality (release builds
    /// too, see [`BoundingBox::overlaps`]).
    pub fn overlaps_strict(&self, other: &BoundingBox) -> bool {
        assert_eq!(
            self.dims(),
            other.dims(),
            "overlaps_strict: box dimensionality mismatch"
        );
        self.lower
            .iter()
            .zip(&self.upper)
            .zip(other.lower.iter().zip(&other.upper))
            .all(|((&l1, &u1), (&l2, &u2))| u1 > l2 && l1 < u2)
    }

    /// True when `point` lies inside the box (closed on both sides).
    ///
    /// # Panics
    /// Panics when `point` has a different dimensionality than the box — in
    /// release builds too. The former `debug_assert` let a short point
    /// slice zip-truncate in release, so a 2-d point "fit" a 10-d box
    /// whenever its two coordinates landed inside the first two intervals.
    pub fn contains(&self, point: &[f64]) -> bool {
        assert_eq!(
            self.dims(),
            point.len(),
            "contains: point/box dimensionality mismatch"
        );
        point
            .iter()
            .zip(self.lower.iter().zip(&self.upper))
            .all(|(&v, (&l, &u))| v >= l && v <= u)
    }

    /// Smallest box containing both inputs (the "space of a correlation
    /// cluster is the union of the spaces of its β-clusters" — we expose the
    /// hull for reporting; membership tests still use the exact union).
    ///
    /// # Panics
    /// Panics when the boxes have different dimensionality (release builds
    /// too, see [`BoundingBox::overlaps`]).
    pub fn hull(&self, other: &BoundingBox) -> BoundingBox {
        assert_eq!(
            self.dims(),
            other.dims(),
            "hull: box dimensionality mismatch"
        );
        BoundingBox {
            lower: self
                .lower
                .iter()
                .zip(&other.lower)
                .map(|(&a, &b)| a.min(b))
                .collect(),
            upper: self
                .upper
                .iter()
                .zip(&other.upper)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        }
    }

    /// Side length on axis `j`.
    ///
    /// # Panics
    /// Panics when `j >= self.dims()`.
    #[inline]
    pub fn extent(&self, j: usize) -> f64 {
        self.upper(j) - self.lower(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::exactly;

    #[test]
    fn unit_box_contains_unit_points() {
        let b = BoundingBox::unit(3);
        assert!(b.contains(&[0.0, 0.5, 0.999]));
        assert!(b.contains(&[1.0, 1.0, 1.0]));
        assert!(!b.contains(&[1.0001, 0.0, 0.0]));
    }

    #[test]
    fn overlap_is_symmetric_and_touching_counts() {
        let a = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let b = BoundingBox::new(vec![0.5, 0.0], vec![1.0, 0.5]);
        let c = BoundingBox::new(vec![0.6, 0.6], vec![1.0, 1.0]);
        assert!(a.overlaps(&b) && b.overlaps(&a)); // shared face counts
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    fn strict_overlap_excludes_touching() {
        let a = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let b = BoundingBox::new(vec![0.5, 0.0], vec![1.0, 0.5]);
        let c = BoundingBox::new(vec![0.4, 0.1], vec![0.6, 0.3]);
        assert!(!a.overlaps_strict(&b) && !b.overlaps_strict(&a));
        assert!(a.overlaps_strict(&c) && c.overlaps_strict(&a));
        // Strict implies non-strict.
        assert!(a.overlaps(&c));
    }

    #[test]
    fn overlap_requires_every_axis() {
        // Overlap on axis 0 but disjoint on axis 1 → no overlap.
        let a = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 0.2]);
        let b = BoundingBox::new(vec![0.0, 0.5], vec![1.0, 1.0]);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn hull_covers_both() {
        let a = BoundingBox::new(vec![0.0, 0.4], vec![0.2, 0.6]);
        let b = BoundingBox::new(vec![0.1, 0.0], vec![0.5, 0.5]);
        let h = a.hull(&b);
        assert!(exactly(h.lower(0), 0.0));
        assert!(exactly(h.upper(0), 0.5));
        assert!(exactly(h.lower(1), 0.0));
        assert!(exactly(h.upper(1), 0.6));
        assert!(h.contains(&[0.0, 0.6]) && h.contains(&[0.5, 0.0]));
    }

    #[test]
    #[should_panic(expected = "lower")]
    fn inverted_bounds_panic() {
        BoundingBox::new(vec![0.7], vec![0.3]);
    }

    #[test]
    fn extent_matches_bounds() {
        let b = BoundingBox::new(vec![0.25], vec![0.75]);
        assert!((b.extent(0) - 0.5).abs() < 1e-12);
    }

    // The four guards below must hold in *release* builds too (they were
    // `debug_assert`s once, letting a short point zip-truncate): these tests
    // run under `cargo test --release` / the CI release profile unchanged.

    #[test]
    #[should_panic(expected = "contains: point/box dimensionality mismatch")]
    fn contains_rejects_short_point_in_every_profile() {
        // Pre-fix release behaviour: this 2-d point "fit" the 10-d box.
        let b = BoundingBox::unit(10);
        let _ = b.contains(&[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "overlaps: box dimensionality mismatch")]
    fn overlaps_rejects_dim_mismatch_in_every_profile() {
        let _ = BoundingBox::unit(3).overlaps(&BoundingBox::unit(2));
    }

    #[test]
    #[should_panic(expected = "overlaps_strict: box dimensionality mismatch")]
    fn overlaps_strict_rejects_dim_mismatch_in_every_profile() {
        let _ = BoundingBox::unit(3).overlaps_strict(&BoundingBox::unit(2));
    }

    #[test]
    #[should_panic(expected = "hull: box dimensionality mismatch")]
    fn hull_rejects_dim_mismatch_in_every_profile() {
        let _ = BoundingBox::unit(2).hull(&BoundingBox::unit(4));
    }
}
