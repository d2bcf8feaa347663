//! Counting-tree construction (Algorithm 1) and whole-tree queries.

use mrcc_common::num::{bounded_to_u32, powi_exp, trunc_to_u64};
use mrcc_common::{Dataset, Error, Result};

use crate::cell::CellId;
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

/// The Counting-tree: levels `h = 1 … H−1` of a multi-resolution hyper-grid.
///
/// The root (level 0, the whole unit cube, `n = η`) is implicit. Build with
/// [`CountingTree::build`]; a single scan counts every point in every level
/// and accumulates the per-axis half-space counts, exactly Algorithm 1.
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
    /// # Errors
    /// * [`Error::InvalidParameter`] if `resolutions` is outside
    ///   `[MIN_RESOLUTIONS, MAX_RESOLUTIONS]` or any coordinate is outside
    ///   `[0, 1)` (the dataset must be normalized first — Definition 1).
    /// * [`Error::EmptyDataset`] for a dataset with no points.
    pub fn build(ds: &Dataset, resolutions: usize) -> Result<CountingTree> {
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
        let mut tree = CountingTree::empty(ds.dims(), resolutions)?;
        for p in ds.iter() {
            tree.insert(p)?;
        }
        Ok(tree)
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

    /// Creates an empty tree for incremental / streaming insertion.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] for an out-of-range `resolutions`,
    /// [`Error::UnsupportedDimensionality`] via the same validation
    /// [`CountingTree::build`] applies.
    pub fn empty(dims: usize, resolutions: usize) -> Result<CountingTree> {
        if !(MIN_RESOLUTIONS..=MAX_RESOLUTIONS).contains(&resolutions) {
            return Err(Error::InvalidParameter {
                name: "resolutions",
                message: format!(
                    "H must be in [{MIN_RESOLUTIONS}, {MAX_RESOLUTIONS}], got {resolutions}"
                ),
            });
        }
        if dims == 0 {
            return Err(Error::InvalidParameter {
                name: "dims",
                message: "need at least one axis".into(),
            });
        }
        let h_max = resolutions - 1;
        Ok(CountingTree {
            dims,
            n_points: 0,
            resolutions,
            levels: (1..=h_max).map(|h| Level::new(bounded_to_u32(h))).collect(),
        })
    }

    /// Counts one point into every level — the body of Algorithm 1, exposed
    /// for streaming use. `O(H·d)` per point.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] on a wrong-width point;
    /// [`Error::InvalidParameter`] when a coordinate is outside `[0, 1)`.
    pub fn insert(&mut self, point: &[f64]) -> Result<()> {
        let d = self.dims;
        if point.len() != d {
            return Err(Error::DimensionMismatch {
                expected: d,
                got: point.len(),
            });
        }
        let h_max = self.resolutions - 1;
        // Finest "virtual" grid: level h_max + 1, used only to derive the
        // coordinates of every real level (right-shift) and the half-space
        // bit of the deepest level.
        let fine_scale = (2.0f64).powi(powi_exp(h_max + 1));
        let mut fine = vec![0u64; d];
        for ((j, &v), slot) in point.iter().enumerate().zip(fine.iter_mut()) {
            if !(0.0..1.0).contains(&v) {
                return Err(Error::InvalidParameter {
                    name: "point",
                    message: format!(
                        "value {v} at axis {j} outside [0,1); normalize the data first"
                    ),
                });
            }
            *slot = trunc_to_u64(v * fine_scale);
        }
        let mut coords = vec![0u64; d];
        for (li, level) in self.levels.iter_mut().enumerate() {
            let h = li + 1;
            let shift = bounded_to_u32(h_max + 1 - h);
            for (c, f) in coords.iter_mut().zip(&fine) {
                *c = f >> shift;
            }
            let id = level.get_or_insert(&coords);
            // The point is in the lower half of this cell along e_j iff its
            // coordinate one level finer is even.
            level
                .cell_mut(id)
                .count_point(fine.iter().map(|f| (f >> (shift - 1)) & 1 == 0));
        }
        self.n_points += 1;
        Ok(())
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
    pub fn level(&self, h: usize) -> &Level {
        &self.levels[h - 1] // xtask-allow: indexing — documented `# Panics` contract
    }

    /// Mutable access to level `h` (the clustering pass flips `usedCell`).
    ///
    /// # Panics
    /// Panics for out-of-range `h`.
    #[inline]
    pub fn level_mut(&mut self, h: usize) -> &mut Level {
        &mut self.levels[h - 1] // xtask-allow: indexing — documented `# Panics` contract
    }

    /// Iterate over all materialized levels, shallow to deep.
    pub fn levels(&self) -> impl Iterator<Item = &Level> {
        self.levels.iter()
    }

    /// Clears every `usedCell` flag (re-run the search on the same tree).
    pub fn reset_used(&mut self) {
        for level in &mut self.levels {
            let ids: Vec<CellId> = level.iter().map(|(id, _)| id).collect();
            for id in ids {
                level.set_used(id, false);
            }
        }
    }

    /// Approximate heap footprint in bytes, for the memory experiments.
    pub fn memory_bytes(&self) -> usize {
        self.levels.iter().map(Level::memory_bytes).sum::<usize>() + size_of::<CountingTree>()
    }

    /// Re-verifies the structural invariants Algorithm 1 is supposed to
    /// maintain:
    ///
    /// * **count conservation** — every materialized level's cell counts sum
    ///   to `η`, the number of inserted points;
    /// * **half-space bounds** — per cell, each axis half-count `P[j]` never
    ///   exceeds the cell count `n`, and coordinates stay inside the level's
    ///   `2^h` grid;
    /// * **parent/child containment** — every cell at level `h + 1` has a
    ///   materialized parent at level `h` (coordinates right-shifted by one)
    ///   holding at least as many points.
    ///
    /// Compiled only with the `strict-invariants` feature; call from tests
    /// after building or mutating a tree. `O(H · cells · d)`.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    #[cfg(feature = "strict-invariants")]
    pub fn check_invariants(&self) {
        let n = mrcc_common::num::usize_to_u64(self.n_points);
        for level in &self.levels {
            assert_eq!(
                level.total_points(),
                n,
                "invariant violated: level {} does not conserve the point count",
                level.h()
            );
            let extent = level.grid_extent();
            for (_, cell) in level.iter() {
                assert_eq!(
                    cell.coords().len(),
                    self.dims,
                    "invariant violated: level {} cell with wrong coordinate width",
                    level.h()
                );
                assert!(
                    cell.coords().iter().all(|&c| c < extent),
                    "invariant violated: level {} cell {:?} outside the 2^h grid",
                    level.h(),
                    cell.coords()
                );
                for j in 0..self.dims {
                    assert!(
                        cell.half_count(j) <= cell.n(),
                        "invariant violated: level {} cell {:?}: P[{j}] > n",
                        level.h(),
                        cell.coords()
                    );
                }
            }
        }
        let mut parent_coords = vec![0u64; self.dims];
        for pair in self.levels.windows(2) {
            let (parent, child) = (&pair[0], &pair[1]);
            for (_, cc) in child.iter() {
                for (slot, &c) in parent_coords.iter_mut().zip(cc.coords()) {
                    *slot = c >> 1;
                }
                let pid = parent.find(&parent_coords).expect(
                    "tree containment invariant: every child cell has a materialized parent",
                );
                assert!(
                    parent.cell(pid).n() >= cc.n(),
                    "invariant violated: level {} cell {:?} outweighs its parent",
                    child.h(),
                    cc.coords()
                );
            }
        }
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
        // an even coordinate along axis j at level h+1.
        let ds = tiny();
        let tree = CountingTree::build(&ds, 5).unwrap();
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            for (_, cell) in level.iter() {
                for j in 0..tree.dims() {
                    let expect: u64 = child
                        .iter()
                        .filter(|(_, cc)| {
                            (0..tree.dims()).all(|k| cc.coords()[k] >> 1 == cell.coords()[k])
                                && cc.coords()[j] & 1 == 0
                        })
                        .map(|(_, cc)| cc.n())
                        .sum();
                    assert_eq!(
                        cell.half_count(j),
                        expect,
                        "h={h} cell={:?} axis={j}",
                        cell.coords()
                    );
                }
            }
        }
    }

    #[test]
    fn parent_child_counts_are_consistent() {
        let ds = tiny();
        let tree = CountingTree::build(&ds, 5).unwrap();
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            for (_, cell) in level.iter() {
                let sum: u64 = child
                    .iter()
                    .filter(|(_, cc)| {
                        (0..tree.dims()).all(|k| cc.coords()[k] >> 1 == cell.coords()[k])
                    })
                    .map(|(_, cc)| cc.n())
                    .sum();
                assert_eq!(cell.n(), sum);
            }
        }
    }

    #[test]
    fn reset_used_clears_flags() {
        let ds = tiny();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        tree.level_mut(2).set_used(0, true);
        assert!(tree.level(2).cell(0).used());
        tree.reset_used();
        assert!(tree.levels().all(|l| l.iter().all(|(_, c)| !c.used())));
    }

    #[test]
    fn boundary_point_near_one_lands_in_last_cell() {
        let ds = Dataset::from_rows(&[[0.999_999_999, 0.0]]).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let l3 = tree.level(3);
        assert_eq!(l3.n_cells(), 1);
        let (_, cell) = l3.iter().next().unwrap();
        assert_eq!(cell.coords()[0], 7); // 2^3 − 1
        assert_eq!(cell.coords()[1], 0);
    }

    #[test]
    fn memory_grows_with_resolutions() {
        let ds = tiny();
        let t4 = CountingTree::build(&ds, 4).unwrap();
        let t8 = CountingTree::build(&ds, 8).unwrap();
        assert!(t8.memory_bytes() > t4.memory_bytes());
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use mrcc_common::Dataset;

    #[test]
    fn incremental_equals_batch() {
        let ds = Dataset::from_rows(&[
            [0.11, 0.82],
            [0.13, 0.79],
            [0.56, 0.31],
            [0.94, 0.07],
            [0.50, 0.50],
        ])
        .unwrap();
        let batch = CountingTree::build(&ds, 5).unwrap();
        let mut inc = CountingTree::empty(2, 5).unwrap();
        for p in ds.iter() {
            inc.insert(p).unwrap();
        }
        assert_eq!(inc.n_points(), batch.n_points());
        for h in 1..=batch.deepest_level() {
            let (bl, il) = (batch.level(h), inc.level(h));
            assert_eq!(bl.n_cells(), il.n_cells(), "level {h}");
            for (_, cell) in bl.iter() {
                let id = il.find(cell.coords()).expect("cell present");
                let other = il.cell(id);
                assert_eq!(cell.n(), other.n());
                assert_eq!(cell.half_counts(), other.half_counts());
            }
        }
    }

    #[test]
    fn insert_validates_input() {
        let mut tree = CountingTree::empty(3, 4).unwrap();
        assert!(tree.insert(&[0.1, 0.2]).is_err()); // wrong width
        assert!(tree.insert(&[0.1, 0.2, 1.0]).is_err()); // out of range
        assert!(tree.insert(&[0.1, 0.2, 0.3]).is_ok());
        assert_eq!(tree.n_points(), 1);
    }

    #[test]
    fn empty_tree_has_no_cells() {
        let tree = CountingTree::empty(4, 4).unwrap();
        assert_eq!(tree.n_points(), 0);
        assert!(tree.levels().all(|l| l.n_cells() == 0));
        assert!(CountingTree::empty(4, 2).is_err());
        assert!(CountingTree::empty(0, 4).is_err());
    }
}
