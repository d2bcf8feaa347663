//! Property-based invariants of the Counting-tree.

use mrcc_common::Dataset;
use mrcc_counting_tree::{CountingTree, Direction};
use proptest::prelude::*;

/// Strategy: a random dataset with 1–200 points in 1–8 dimensions, all
/// coordinates in [0, 1).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..=8).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d..=d), 1..200)
            .prop_map(move |rows| Dataset::from_rows(&rows).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every level counts every point exactly once.
    #[test]
    fn levels_conserve_mass(ds in dataset_strategy(), h in 3usize..=7) {
        let tree = CountingTree::build(&ds, h).unwrap();
        #[cfg(feature = "strict-invariants")]
        tree.check_invariants();
        for level in tree.levels() {
            prop_assert_eq!(level.total_points(), ds.len() as u64);
        }
    }

    /// No level materializes more cells than there are points, and every
    /// cell is non-empty with coordinates inside the grid extent.
    #[test]
    fn cells_are_sparse_and_in_range(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 5).unwrap();
        for level in tree.levels() {
            prop_assert!(level.n_cells() <= ds.len());
            for (_, cell) in level.iter() {
                prop_assert!(cell.n() >= 1);
                for &c in cell.coords() {
                    prop_assert!(c < level.grid_extent());
                }
            }
        }
    }

    /// Half-space counts never exceed the cell count and the two halves sum
    /// to the whole: P[j] ∈ [0, n].
    #[test]
    fn half_space_counts_bounded(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 5).unwrap();
        for level in tree.levels() {
            for (_, cell) in level.iter() {
                for j in 0..tree.dims() {
                    prop_assert!(cell.half_count(j) <= cell.n());
                }
            }
        }
    }

    /// Each cell's count equals the sum of its children's counts.
    #[test]
    fn parent_child_mass(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 5).unwrap();
        #[cfg(feature = "strict-invariants")]
        tree.check_invariants();
        let d = tree.dims();
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            // Accumulate child masses into parent keys.
            use std::collections::HashMap;
            let mut acc: HashMap<Vec<u64>, u64> = HashMap::new();
            for (_, cc) in child.iter() {
                let key: Vec<u64> = (0..d).map(|k| cc.coords()[k] >> 1).collect();
                *acc.entry(key).or_insert(0) += cc.n();
            }
            for (_, cell) in level.iter() {
                prop_assert_eq!(acc.get(cell.coords()).copied().unwrap_or(0), cell.n());
            }
        }
    }

    /// Face-neighbor relation is symmetric.
    #[test]
    fn neighbor_symmetry(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 4).unwrap();
        for level in tree.levels() {
            for (id, _) in level.iter() {
                for j in 0..tree.dims() {
                    if let Some(up) = level.neighbor(id, j, Direction::Upper) {
                        prop_assert_eq!(level.neighbor(up, j, Direction::Lower), Some(id));
                    }
                    if let Some(lo) = level.neighbor(id, j, Direction::Lower) {
                        prop_assert_eq!(level.neighbor(lo, j, Direction::Upper), Some(id));
                    }
                }
            }
        }
    }

    /// The deepest level's cell bounds actually contain the points that were
    /// inserted: rebuild membership by brute force and compare counts.
    #[test]
    fn deepest_cells_contain_their_points(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 4).unwrap();
        let h = tree.deepest_level();
        let level = tree.level(h);
        let side = level.side();
        for (_, cell) in level.iter() {
            let brute = ds
                .iter()
                .filter(|p| {
                    (0..tree.dims()).all(|j| {
                        p[j] >= cell.lower_bound(j, side) && p[j] < cell.upper_bound(j, side)
                    })
                })
                .count() as u64;
            prop_assert_eq!(brute, cell.n());
        }
    }
}
