//! β-box spatial index: per-axis interval stabbing over box bounds.
//!
//! Phase three of MrCC needs, for every dataset point, the set of β-cluster
//! boxes that contain it. Testing every box against every point is
//! `O(β·η·d)` per pass and the old merge phase performed several such
//! passes — `O(β²·η·d)` overall, breaking the paper's linear-time bound
//! (Sec. IV). The [`BoxIndex`] here restores `O(η·(a + c·d))` per scan,
//! where `a` is the number of axes carrying boxes and `c` the number of
//! *candidate* boxes per point: every box is registered once, on its most
//! selective axis, into a uniform 1-d bin grid over `[0,1]`; a stabbing
//! query inspects one bin per registered axis and verifies each candidate
//! with the exact [`BoundingBox::contains`] predicate.
//!
//! Why one axis suffices: a β-cluster box spans the full `[0,1]` range on
//! its irrelevant axes and is confined to a grid-aligned interval (side
//! `2^-level`, possibly stretched by one cell) on every relevant axis —
//! the `center_coords`/`level` provenance each β-cluster carries. The most
//! selective axis therefore covers `O(1)` bins at any bin resolution at or
//! below the cluster's grid level, so registration is cheap and candidate
//! lists stay short. A box with no confined axis (the degenerate unit box)
//! falls back to the `everywhere` list and is tested against every point.

use crate::bbox::BoundingBox;

/// Bins per axis grid: fine enough that a β-box confined at level ≥ 2
/// covers a handful of bins, coarse enough that building the grid is
/// negligible next to one dataset scan.
const MAX_BINS: usize = 4096;

/// One axis' stabbing structure: boxes registered on this axis, bucketed by
/// the uniform bins their interval overlaps.
#[derive(Debug, Clone)]
struct AxisGrid {
    /// The axis this grid stabs along.
    axis: usize,
    /// `bins[b]` lists the ids (ascending) of boxes whose interval on
    /// `axis` overlaps bin `b`.
    bins: Vec<Vec<u32>>,
}

impl AxisGrid {
    fn new(axis: usize, n_bins: usize) -> Self {
        AxisGrid {
            axis,
            bins: vec![Vec::new(); n_bins],
        }
    }

    /// Maps a coordinate into a bin id, clamping anything outside `[0,1)`.
    fn bin(&self, v: f64) -> usize {
        // Saturating float→int cast: negatives clamp to 0; the `.min` below
        // clamps `v ≥ 1.0`.
        ((v * self.bins.len() as f64) as usize).min(self.bins.len() - 1)
    }
}

/// Point-stabbing index over a fixed set of axis-aligned boxes.
///
/// Build once per merge phase with [`BoxIndex::new`], then call
/// [`BoxIndex::containing`] for every point of the single dataset scan.
/// Results are exact (candidates are verified with
/// [`BoundingBox::contains`]) and returned in ascending box-id order, so a
/// scan driven by this index visits boxes in the same order a nested
/// boxes-inner loop would — determinism is preserved by construction.
#[derive(Debug, Clone)]
pub struct BoxIndex {
    boxes: Vec<BoundingBox>,
    grids: Vec<AxisGrid>,
    /// Boxes with no confined axis (interval `[0,1]` everywhere): no axis
    /// can prune them, so they are candidates for every point.
    everywhere: Vec<u32>,
}

impl BoxIndex {
    /// Builds the index over `boxes` (cloned; the index is self-contained).
    ///
    /// Each box is registered on its most selective axis — smallest extent,
    /// ties toward the lower axis index — or into the unprunable
    /// `everywhere` list when every axis spans the full unit interval.
    ///
    /// # Panics
    /// Panics when the boxes disagree on dimensionality, or when a box id
    /// would not fit in `u32` (far beyond any realistic β-cluster count).
    #[must_use]
    pub fn new(boxes: &[BoundingBox]) -> Self {
        let dims = boxes.first().map_or(0, BoundingBox::dims);
        let n_bins = (boxes.len() * 4).clamp(16, MAX_BINS);
        let mut grids: Vec<Option<AxisGrid>> = (0..dims).map(|_| None).collect();
        let mut everywhere: Vec<u32> = Vec::new();
        for (k, b) in boxes.iter().enumerate() {
            assert_eq!(b.dims(), dims, "box {k}: dimensionality mismatch");
            #[expect(clippy::expect_used, reason = "box count fits in u32 by construction")]
            let id = u32::try_from(k).expect("box count fits in u32 by construction invariant");
            #[expect(clippy::expect_used, reason = "box extents are finite")]
            let best = (0..dims).min_by(|&i, &j| {
                b.extent(i)
                    .partial_cmp(&b.extent(j))
                    .expect("box extents are finite by BoundingBox invariant")
            });
            match best {
                Some(j) if b.extent(j) < 1.0 => {
                    #[expect(clippy::expect_used, reason = "axis index < dims by loop invariant")]
                    let grid = grids
                        .get_mut(j)
                        .expect("axis index < dims by loop invariant")
                        .get_or_insert_with(|| AxisGrid::new(j, n_bins));
                    let lo = grid.bin(b.lower(j));
                    let hi = grid.bin(b.upper(j));
                    // xtask-allow: indexing — bin() clamps, and lower ≤ upper
                    for bin in &mut grid.bins[lo..=hi] {
                        bin.push(id);
                    }
                }
                _ => everywhere.push(id),
            }
        }
        BoxIndex {
            boxes: boxes.to_vec(),
            grids: grids.into_iter().flatten().collect(),
            everywhere,
        }
    }

    /// Number of indexed boxes.
    #[must_use]
    pub fn n_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Collects into `out` the ids of every box containing `point`, in
    /// ascending id order. `out` is cleared first; reuse one buffer across a
    /// scan to stay allocation-free.
    ///
    /// # Panics
    /// Panics when `point` has fewer coordinates than the indexed boxes
    /// (via [`BoundingBox::contains`]).
    pub fn containing(&self, point: &[f64], out: &mut Vec<u32>) {
        out.clear();
        for grid in &self.grids {
            #[expect(clippy::expect_used, reason = "point dims match box dims")]
            let v = *point
                .get(grid.axis)
                .expect("point dims match box dims by contains() invariant");
            let bin = &grid.bins[grid.bin(v)]; // xtask-allow: indexing — bin() clamps into range
            for &id in bin {
                if self.boxes[id as usize].contains(point) {
                    // xtask-allow: indexing — ids were minted from boxes' indices
                    out.push(id);
                }
            }
        }
        for &id in &self.everywhere {
            if self.boxes[id as usize].contains(point) {
                // xtask-allow: indexing — ids were minted from boxes' indices
                out.push(id);
            }
        }
        // Each box is registered in exactly one structure, so `out` holds no
        // duplicates; sorting restores the global ascending-id order across
        // per-axis lists.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes_2d() -> Vec<BoundingBox> {
        vec![
            BoundingBox::new(vec![0.0, 0.0], vec![0.25, 0.25]),
            BoundingBox::new(vec![0.2, 0.2], vec![0.5, 0.5]),
            BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]), // unit box
            BoundingBox::new(vec![0.5, 0.0], vec![0.9, 1.0]), // slab on axis 0
        ]
    }

    fn brute(boxes: &[BoundingBox], p: &[f64]) -> Vec<u32> {
        boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.contains(p))
            .map(|(k, _)| u32::try_from(k).unwrap())
            .collect()
    }

    #[test]
    fn matches_brute_force_on_grid_points() {
        let boxes = boxes_2d();
        let index = BoxIndex::new(&boxes);
        assert_eq!(index.n_boxes(), 4);
        let mut out = Vec::new();
        for i in 0..=20 {
            for j in 0..=20 {
                let p = [f64::from(i) / 20.0, f64::from(j) / 20.0];
                index.containing(&p, &mut out);
                assert_eq!(out, brute(&boxes, &p), "point {p:?}");
            }
        }
    }

    #[test]
    fn unit_boxes_are_unprunable_but_still_reported() {
        let boxes = vec![BoundingBox::unit(3), BoundingBox::unit(3)];
        let index = BoxIndex::new(&boxes);
        let mut out = Vec::new();
        index.containing(&[0.3, 0.9, 0.0], &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn empty_box_set() {
        let index = BoxIndex::new(&[]);
        let mut out = vec![7u32];
        index.containing(&[0.5], &mut out);
        assert!(out.is_empty());
        assert_eq!(index.n_boxes(), 0);
    }

    #[test]
    fn closed_bounds_include_faces() {
        // Face-touching boxes: the shared coordinate belongs to both.
        let boxes = vec![
            BoundingBox::new(vec![0.0], vec![0.5]),
            BoundingBox::new(vec![0.5], vec![1.0]),
        ];
        let index = BoxIndex::new(&boxes);
        let mut out = Vec::new();
        index.containing(&[0.5], &mut out);
        assert_eq!(out, vec![0, 1]);
        index.containing(&[0.49], &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn degenerate_zero_extent_box() {
        let boxes = vec![BoundingBox::new(vec![0.3, 0.7], vec![0.3, 0.7])];
        let index = BoxIndex::new(&boxes);
        let mut out = Vec::new();
        index.containing(&[0.3, 0.7], &mut out);
        assert_eq!(out, vec![0]);
        index.containing(&[0.3, 0.6999], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_boxes_all_reported() {
        let boxes = vec![
            BoundingBox::new(vec![0.1, 0.1], vec![0.9, 0.9]),
            BoundingBox::new(vec![0.3, 0.3], vec![0.7, 0.7]),
            BoundingBox::new(vec![0.45, 0.45], vec![0.55, 0.55]),
        ];
        let index = BoxIndex::new(&boxes);
        let mut out = Vec::new();
        index.containing(&[0.5, 0.5], &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        index.containing(&[0.35, 0.35], &mut out);
        assert_eq!(out, vec![0, 1]);
    }
}
