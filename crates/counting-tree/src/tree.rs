//! Counting-tree construction (Algorithm 1) and whole-tree queries.

use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::num::{bounded_to_u32, u32_to_usize};
use mrcc_common::{Dataset, Error, Result};

use crate::cell::CellId;
use crate::keys::{plane_bits, SortedKeys};
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
/// one sort of per-point keys. Algorithm 1 also stores the per-axis
/// half-space counts `P` in every cell; here [`ChildIndex`] derives them
/// from the children's counts, for the few cells whose `P` is read.
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
    /// The build sorts instead of inserting. Each point gets one level-major
    /// key: the level-1 bit of every axis, then the level-2 bits, and so on
    /// down to the deepest level's, `d·(H−1)` bits in all.
    /// Once the keys are sorted, the cells of level `h` are the runs of
    /// equal `h·d`-bit prefixes. One sweep over the runs appends every
    /// level's cells in that order, with their parents (the enclosing run
    /// one level up). Each point counts into its cell at every level. Each
    /// level is then sorted once into packed-key order, its cells
    /// renumbered and its children's parents renamed.
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
        let h_max = resolutions - 1;
        let keys = SortedKeys::new(ds, resolutions)?;

        // A run of level h starts wherever the sorted keys first differ in
        // one of the first h bit-planes. Count the runs to size each level.
        let mut cells = vec![0usize; h_max];
        keys.walk(|_, split| {
            for count in cells.iter_mut().skip(split) {
                *count += 1;
            }
        });
        let mut levels: Vec<Level> = (1..)
            .zip(cells)
            .map(|(h, cells)| Level::with_capacity(h, d, cells))
            .collect();

        // The sweep. `deep` holds the deepest-level coordinates of the open
        // runs; a point starting a run at plane `split` opens one per plane
        // `split..`, then counts into the open run of every level.
        let mut deep = [0u64; MAX_DIMS];
        #[expect(
            clippy::indexing_slicing,
            reason = "a `Dataset` has at most MAX_DIMS axes"
        )]
        let deep = &mut deep[..d];
        keys.walk(|key, split| {
            for plane in split..h_max {
                let bits = plane_bits(key, plane, d);
                let shift = h_max - 1 - plane;
                for (j, c) in deep.iter_mut().enumerate() {
                    *c = (*c & !(1 << shift)) | (((bits >> j) & 1) << shift);
                }
                // Level 1's parent is the implicit root, reported as id 0.
                let parent = plane
                    .checked_sub(1)
                    .and_then(|up| levels.get(up))
                    .map_or(0, |up| bounded_to_u32(up.n_cells()) - 1);
                if let Some(level) = levels.get_mut(plane) {
                    level.push_cell(deep.iter().map(|&c| c >> shift), parent);
                }
            }
            for level in &mut levels {
                level.add_to_last(1);
            }
        });
        drop(keys);
        // Level-major order is not packed-key order past level 1: sort each
        // level, shallow to deep, renaming the parents to the sorted ids.
        let mut rank = Vec::new();
        for level in &mut levels {
            rank = level.sort_cells(&rank);
        }
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

/// The children of every cell of one level, grouped by parent: the paper's
/// `ptr`, from one counting sort of the child level's parent ids. It gives
/// the half-space counts `P` that the tree does not store, in
/// `4·(c_h + 1 + c_(h+1))` bytes for `c_h` cells at level `h`.
#[derive(Debug)]
pub struct ChildIndex<'a> {
    children: &'a Level,
    /// Parent `p`'s children are `ids[first[p]..first[p + 1]]`.
    first: Vec<u32>,
    /// The child level's ids, grouped by parent, ascending within a group.
    ids: Vec<CellId>,
}

impl<'a> ChildIndex<'a> {
    /// Indexes the children of the cells of level `h`, `1 ≤ h ≤ H − 2`.
    ///
    /// # Panics
    /// Panics for `h` outside `1..=H−2`: the deepest level has no children.
    #[expect(clippy::indexing_slicing, reason = "parent ids < parents")]
    pub fn new(tree: &'a CountingTree, h: usize) -> Self {
        let (parents, children) = (tree.level(h).n_cells(), tree.level(h + 1));
        let mut first = vec![0u32; parents + 1];
        for id in children.ids() {
            first[u32_to_usize(children.parent(id))] += 1;
        }
        let mut total = 0;
        for slot in &mut first {
            total += *slot;
            *slot = total;
        }
        // Filled back to front: each `first[p]` steps down to its group's
        // start, and each group is ascending.
        let mut ids = vec![0; children.n_cells()];
        for id in children.ids().rev() {
            let slot = &mut first[u32_to_usize(children.parent(id))];
            *slot -= 1;
            ids[u32_to_usize(*slot)] = id;
        }
        ChildIndex {
            children,
            first,
            ids,
        }
    }

    /// Half-space count `P[j]` of cell `parent`: its points in the **lower**
    /// half along `e_j`, the count of its children with an even coordinate
    /// `j`.
    ///
    /// # Panics
    /// Panics when `parent` is not a cell of the indexed level.
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn half_count(&self, parent: CellId, j: usize) -> u64 {
        let p = u32_to_usize(parent);
        let group = u32_to_usize(self.first[p])..u32_to_usize(self.first[p + 1]);
        self.ids[group]
            .iter()
            .map(|&id| self.children.cell(id))
            .filter(|child| !child.loc_bit(j))
            .map(|child| child.n())
            .sum()
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
            let index = ChildIndex::new(&tree, h);
            for (id, cell) in level.iter() {
                for j in 0..tree.dims() {
                    let expect: u64 = child
                        .iter()
                        .filter(|(_, cc)| {
                            (0..tree.dims()).all(|k| cc.coord(k) >> 1 == cell.coord(k))
                                && cc.coord(j) & 1 == 0
                        })
                        .map(|(_, cc)| cc.n())
                        .sum();
                    assert_eq!(
                        index.half_count(id, j),
                        expect,
                        "h={h} cell={:?} axis={j}",
                        cell.coords().collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn half_counts_derive_from_the_children() {
        // Level-1 cell (0, 0) holds three points; on the level-2 grid they
        // sit at (0, 1), (0, 0) and (1, 0): two in its lower half per axis.
        let ds = Dataset::from_rows(&[[0.1, 0.3], [0.1, 0.1], [0.3, 0.1]]).unwrap();
        let tree = CountingTree::build(&ds, 3).unwrap();
        let id = tree.level(1).find(&[0, 0]).unwrap();
        let index = ChildIndex::new(&tree, 1);
        assert_eq!([0, 1].map(|j| index.half_count(id, j)), [2, 2]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn the_deepest_level_has_no_child_index() {
        let tree = CountingTree::build(&tiny(), 4).unwrap();
        ChildIndex::new(&tree, tree.deepest_level());
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
