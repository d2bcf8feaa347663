//! Counting-tree construction (Algorithm 1) and whole-tree queries.

use mrcc_common::num::{bounded_to_u32, u32_to_usize};
use mrcc_common::{Dataset, Error, Result};

use crate::cell::KeyLayout;
use crate::keys::SortedKeys;
use crate::level::Level;

/// Minimum number of resolutions the paper allows (`H ≥ 3`).
pub const MIN_RESOLUTIONS: usize = 3;

/// Maximum number of resolutions.
///
/// Grid coordinates are `u64` and points are `f64` (52 mantissa bits), so
/// resolutions beyond this add levels whose cells are indistinguishable at
/// input precision; 64 keeps every shift well-defined and comfortably covers
/// the paper's sensitivity sweep (`H` up to 80 adds nothing past the data's
/// own resolution — see EXPERIMENTS.md).
pub const MAX_RESOLUTIONS: usize = 64;

/// Most points a tree counts: cell counts are `u32`.
pub const MAX_POINTS: usize = u32_to_usize(u32::MAX);

/// The Counting-tree: levels `h = 1 … H−1` of a multi-resolution hyper-grid.
///
/// The root (level 0, the whole unit cube, `n = η`) is implicit. Build with
/// [`CountingTree::build`], which counts every point in every level from
/// one sort of keys per level. Algorithm 1 also stores the per-axis
/// half-space counts `P` in every cell; here [`Level::half_counts`] sums
/// them from the children's counts, for the few cells whose `P` is read.
///
/// ```
/// use mrcc_common::Dataset;
/// use mrcc_counting_tree::CountingTree;
///
/// let ds = Dataset::from_rows(&[[0.1, 0.1], [0.12, 0.14], [0.9, 0.8]]).unwrap();
/// let tree = CountingTree::build(&ds, 4).unwrap();
/// // Every level conserves the point count.
/// for level in tree.levels() {
///     assert_eq!(level.total_points(), 3);
/// }
/// // The two nearby points share the level-2 cell (0, 0).
/// let l2 = tree.level(2);
/// let id = l2.find(&[0, 0]).unwrap();
/// assert_eq!(l2.cell(id).n(), 2);
/// ```
#[derive(Debug)]
pub struct CountingTree {
    pub(crate) dims: usize,
    pub(crate) n_points: usize,
    pub(crate) resolutions: usize,
    pub(crate) levels: Vec<Level>,
}

impl CountingTree {
    /// Builds the tree over a unit-normalized dataset with `H = resolutions`
    /// distinct resolutions.
    ///
    /// The build sorts instead of inserting, deepest level first. Each
    /// point's deepest-level coordinates are packed into that level's key,
    /// and the keys sorted once: each run of equal keys is one cell,
    /// counting its points. Each coarser level `h` then packs every
    /// level-`(h+1)` cell's coordinates `>> 1` and sorts those keys: each
    /// run is one cell, its children's parent, counting the sum of their
    /// counts. The keys are the levels' own, so every level comes out in
    /// packed-key order and no id is renamed. Nothing records a parent: a
    /// cell's parent is the cell at its coordinates `>> 1`.
    /// `O(η·H·d + η·H log η)` time.
    ///
    /// # Errors
    /// * [`Error::InvalidParameter`] if `resolutions` is outside
    ///   `[MIN_RESOLUTIONS, MAX_RESOLUTIONS]` or any coordinate is outside
    ///   `[0, 1)` (the dataset must be normalized first — Definition 1).
    /// * [`Error::EmptyDataset`] for a dataset with no points.
    /// * [`Error::TooManyPoints`] for more than [`MAX_POINTS`] points.
    pub fn build(ds: &Dataset, resolutions: usize) -> Result<CountingTree> {
        let d = ds.dims();
        if !(MIN_RESOLUTIONS..=MAX_RESOLUTIONS).contains(&resolutions) {
            return Err(Error::InvalidParameter {
                name: "resolutions",
                message: format!(
                    "H must be in [{MIN_RESOLUTIONS}, {MAX_RESOLUTIONS}], got {resolutions}"
                ),
            });
        }
        if ds.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if ds.len() > MAX_POINTS {
            return Err(Error::TooManyPoints { max: MAX_POINTS });
        }
        let h_max = bounded_to_u32(resolutions - 1);
        // The deepest level: a run of equal keys per cell, holding the
        // run's points.
        let points = SortedKeys::of_points(ds, h_max)?;
        let mut level = Level::from_runs(h_max, d, &points, |run| bounded_to_u32(run.len()));
        drop(points);
        // Each coarser level from the cells below: a run per cell, holding
        // the run's children, whose parent it is.
        let mut levels = Vec::with_capacity(resolutions - 1);
        for h in (1..h_max).rev() {
            let layout = KeyLayout::new(h);
            let children = SortedKeys::new(level.iter(), layout.words(d), |(_, cell), key| {
                layout.pack(cell.coords().map(|c| c >> 1), key);
                Ok(())
            })?;
            let parent = Level::from_runs(h, d, &children, |run| level.count_of(run.items()));
            levels.push(std::mem::replace(&mut level, parent));
        }
        levels.push(level);
        levels.reverse();
        Ok(CountingTree {
            dims: d,
            n_points: ds.len(),
            resolutions,
            levels,
        })
    }

    /// Same as [`CountingTree::build`]; `n_threads` is ignored.
    ///
    /// Kept only because the `perfbench` benchmark still calls it. The tree
    /// is always built serially.
    ///
    /// # Errors
    /// Exactly the errors of [`CountingTree::build`].
    pub fn build_sharded(
        ds: &Dataset,
        resolutions: usize,
        n_threads: usize,
    ) -> Result<CountingTree> {
        let _ = n_threads;
        CountingTree::build(ds, resolutions)
    }

    /// Dimensionality `d` of the indexed dataset.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of indexed points `η`.
    #[inline]
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Number of distinct resolutions `H` (root included).
    #[inline]
    pub fn resolutions(&self) -> usize {
        self.resolutions
    }

    /// The deepest materialized level number, `H − 1`.
    #[inline]
    pub fn deepest_level(&self) -> usize {
        self.resolutions - 1
    }

    /// Borrow level `h` (valid for `1 ≤ h ≤ H−1`).
    ///
    /// # Panics
    /// Panics for out-of-range `h`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn level(&self, h: usize) -> &Level {
        &self.levels[h - 1]
    }

    /// Iterate over all materialized levels, shallow to deep.
    pub fn levels(&self) -> impl Iterator<Item = &Level> {
        self.levels.iter()
    }

    /// Heap footprint in bytes, from the capacity of every array the tree
    /// owns (the memory experiments and `FitStats::tree_memory_bytes`).
    pub fn memory_bytes(&self) -> usize {
        self.levels.iter().map(Level::memory_bytes).sum::<usize>() + size_of::<CountingTree>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::Dataset;

    #[test]
    fn min_resolutions_matches_the_paper() {
        // Sec. III: the method needs H ≥ 3 resolutions.
        assert_eq!(MIN_RESOLUTIONS, 3);
    }

    fn tiny() -> Dataset {
        // 6 points in 2-d, deliberately clustered bottom-left.
        Dataset::from_rows(&[
            [0.10, 0.10],
            [0.12, 0.15],
            [0.20, 0.05],
            [0.05, 0.22],
            [0.80, 0.85],
            [0.55, 0.40],
        ])
        .unwrap()
    }

    #[test]
    fn build_validates_parameters() {
        let ds = tiny();
        assert!(CountingTree::build(&ds, 2).is_err());
        assert!(CountingTree::build(&ds, MAX_RESOLUTIONS + 1).is_err());
        assert!(CountingTree::build(&ds, 4).is_ok());
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(
            CountingTree::build(&empty, 4),
            Err(Error::EmptyDataset)
        ));
    }

    #[test]
    fn rejects_unnormalized_data() {
        let ds = Dataset::from_rows(&[[0.5, 1.5]]).unwrap();
        let err = CountingTree::build(&ds, 4).unwrap_err();
        assert!(err.to_string().contains("normalize"));
    }

    #[test]
    fn every_level_counts_every_point() {
        let ds = tiny();
        let tree = CountingTree::build(&ds, 5).unwrap();
        assert_eq!(tree.deepest_level(), 4);
        for level in tree.levels() {
            assert_eq!(level.total_points(), ds.len() as u64, "level {}", level.h());
            assert!(level.n_cells() <= ds.len());
        }
    }

    #[test]
    fn level_one_counts_match_quadrants() {
        let ds = tiny();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let l1 = tree.level(1);
        // Quadrant (0,0): 4 points; (1,1): 2 points ([0.8,0.85], [0.55,0.4]
        // → 0.55 maps to coord 1, 0.40 maps to coord 0 → quadrant (1,0)).
        let q00 = l1.find(&[0, 0]).map(|id| l1.cell(id).n());
        let q11 = l1.find(&[1, 1]).map(|id| l1.cell(id).n());
        let q10 = l1.find(&[1, 0]).map(|id| l1.cell(id).n());
        assert_eq!(q00, Some(4));
        assert_eq!(q11, Some(1));
        assert_eq!(q10, Some(1));
        assert_eq!(l1.find(&[0, 1]), None);
    }

    #[test]
    fn half_space_counts_match_child_level() {
        // P[j] of a level-h cell must equal the points of its children with
        // an even coordinate along axis j at level h+1; level 1 gives the
        // root's.
        let ds = tiny();
        let tree = CountingTree::build(&ds, 5).unwrap();
        let root = tree.level(1).half_counts(&[0, 0]);
        assert_eq!(root, [4, 5], "x < 0.5 and y < 0.5");
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            for (_, cell) in level.iter() {
                let coords: Vec<u64> = cell.coords().collect();
                let expect: Vec<u64> = (0..tree.dims())
                    .map(|j| {
                        child
                            .iter()
                            .filter(|(_, cc)| {
                                (0..tree.dims()).all(|k| cc.coord(k) >> 1 == coords[k])
                                    && cc.coord(j) & 1 == 0
                            })
                            .map(|(_, cc)| cc.n())
                            .sum()
                    })
                    .collect();
                assert_eq!(child.half_counts(&coords), expect, "h={h} cell={coords:?}");
            }
        }
    }

    #[test]
    fn half_counts_derive_from_the_children() {
        // Level-1 cell (0, 0) holds three points; on the level-2 grid they
        // sit at (0, 1), (0, 0) and (1, 0): two in its lower half per axis.
        let ds = Dataset::from_rows(&[[0.1, 0.3], [0.1, 0.1], [0.3, 0.1]]).unwrap();
        let tree = CountingTree::build(&ds, 3).unwrap();
        assert_eq!(tree.level(2).half_counts(&[0, 0]), [2, 2]);
    }

    #[test]
    fn a_parent_without_children_has_empty_halves() {
        // Level-1 cell (0, 1) holds no point, so no level-2 cell lies
        // under it; the deepest level answers for its parents too.
        let tree = CountingTree::build(&tiny(), 4).unwrap();
        assert_eq!(tree.level(1).find(&[0, 1]), None);
        assert_eq!(tree.level(2).half_counts(&[0, 1]), [0, 0]);
        let deepest = tree.level(tree.deepest_level());
        let parents = tree.level(tree.deepest_level() - 1);
        let halves: u64 = parents
            .iter()
            .map(|(_, cell)| deepest.half_counts(&cell.coords().collect::<Vec<_>>())[0])
            .sum();
        assert_eq!(
            halves, 5,
            "points in the lower half of their level-2 cell on x"
        );
    }

    #[test]
    fn parent_child_counts_are_consistent() {
        // Every cell's parent is the cell at its coordinates >> 1 one level
        // up, and each cell counts the sum of its children.
        let ds = tiny();
        let tree = CountingTree::build(&ds, 5).unwrap();
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            for (_, cc) in child.iter() {
                let up: Vec<u64> = cc.coords().map(|c| c >> 1).collect();
                let parent = level.find(&up).expect("every cell has a parent");
                assert!(level.cell(parent).n() >= cc.n());
            }
            for (_, cell) in level.iter() {
                let sum: u64 = child
                    .iter()
                    .filter(|(_, cc)| (0..tree.dims()).all(|k| cc.coord(k) >> 1 == cell.coord(k)))
                    .map(|(_, cc)| cc.n())
                    .sum();
                assert_eq!(cell.n(), sum);
            }
        }
    }

    #[test]
    fn boundary_point_near_one_lands_in_last_cell() {
        let ds = Dataset::from_rows(&[[0.999_999_999, 0.0]]).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let l3 = tree.level(3);
        assert_eq!(l3.n_cells(), 1);
        let (_, cell) = l3.iter().next().unwrap();
        assert_eq!(cell.coord(0), 7); // 2^3 − 1
        assert_eq!(cell.coord(1), 0);
    }

    #[test]
    fn memory_grows_with_resolutions() {
        let ds = tiny();
        let t4 = CountingTree::build(&ds, 4).unwrap();
        let t8 = CountingTree::build(&ds, 8).unwrap();
        assert!(t8.memory_bytes() > t4.memory_bytes());
    }
}
