//! Property-based invariants of the Counting-tree.

use std::collections::BTreeMap;

use mrcc_common::Dataset;
use mrcc_counting_tree::{CellId, CountingTree, Direction, Level};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random dataset with 1–200 points in 1–8 dimensions, all
/// coordinates in [0, 1).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..=8).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d..=d), 1..200)
            .prop_map(move |rows| Dataset::from_rows(&rows).unwrap())
    })
}

/// The largest `f64` below 1: at level `h ≤ 53` it lands in the last grid
/// cell, `2^h − 1`.
const LAST_BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// Strategy: a tree shape `(d, H)` with `d ∈ {1, 2..=8, 21, 22, 43, 64}`
/// and `H ∈ {3, 4..=7, 64}`, drawing each wide `d` about one time in
/// thirteen and each extreme `H` about one in six. At `H = 4` the deepest
/// level packs 21 coordinates per key word, so `d = 21, 22, 43, 64` take
/// one to four words; at `H = 64` every coordinate of the deepest level
/// takes a word.
fn shape_strategy() -> impl Strategy<Value = (usize, usize)> {
    (0usize..=12, 0usize..=5).prop_map(|(a, b)| {
        let d = match a {
            0 => 64,
            10 => 21,
            11 => 22,
            12 => 43,
            a => a.min(8),
        };
        let h = match b {
            0 => 3,
            1 => 64,
            b => b + 2,
        };
        (d, h)
    })
}

/// Strategy: one coordinate, mixing the borders of the unit cube, the
/// centres of an 8-bin grid (which put cells next to each other) and
/// uniform values.
fn coordinate_strategy() -> impl Strategy<Value = f64> {
    (0u8..=9, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => LAST_BELOW_ONE,
        2..=5 => ((x * 8.0).floor() + 0.5) / 8.0,
        _ => x,
    })
}

/// Strategy: a tree resolution and a dataset for it; wide or tall trees get
/// fewer points to keep the brute-force reference fast.
fn tree_case_strategy() -> impl Strategy<Value = (Dataset, usize)> {
    shape_strategy().prop_flat_map(|(d, h)| {
        let max_points = if d > 8 || h == 64 { 40 } else { 200 };
        (
            proptest::collection::vec(
                proptest::collection::vec(coordinate_strategy(), d..=d),
                1..max_points,
            )
            .prop_map(|rows| Dataset::from_rows(&rows).unwrap()),
            Just(h),
        )
    })
}

/// Brute-force lookup: a linear scan over the level's cells.
fn scan(level: &Level, coords: &[u64]) -> Option<CellId> {
    level
        .iter()
        .find(|(_, cell)| cell.coords().eq(coords.iter().copied()))
        .map(|(id, _)| id)
}

/// `find`, `neighbor` (both directions, every axis), `neighbor_count` and
/// `face_neighbor_sums` agree with [`scan`] on every cell of every level, and
/// `find` refuses wrong-width and off-grid coordinates.
fn assert_lookups_match_scan(tree: &CountingTree) {
    let d = tree.dims();
    for level in tree.levels() {
        let extent = level.grid_extent();
        let mut sums = Vec::new();
        for (id, cell) in level.iter() {
            let coords: Vec<u64> = cell.coords().collect();
            assert_eq!(coords.len(), d);
            assert!((0..d).all(|j| cell.coord(j) == coords[j]));
            assert_eq!(level.find(&coords), Some(id), "level {}", level.h());
            assert_eq!(level.find(&coords[..d - 1]), None, "narrow key");
            assert_eq!(level.find(&[&coords[..], &[0]].concat()), None, "wide key");
            let mut sum = 0;
            for axis in 0..d {
                let mut off_grid = coords.clone();
                off_grid[axis] = extent;
                assert_eq!(level.find(&off_grid), None, "2^h on axis {axis}");
                let c = coords[axis];
                for (dir, target) in [
                    (Direction::Lower, c.checked_sub(1)),
                    (Direction::Upper, Some(c + 1).filter(|&t| t < extent)),
                ] {
                    let expected = target.and_then(|t| {
                        let mut key = coords.clone();
                        key[axis] = t;
                        let found = scan(level, &key);
                        assert_eq!(level.find(&key), found, "find {key:?}");
                        found
                    });
                    let context = format!("level {} cell {id} axis {axis} {dir:?}", level.h());
                    assert_eq!(level.neighbor(id, axis, dir), expected, "{context}");
                    let count = expected.map_or(0, |nid| level.cell(nid).n());
                    assert_eq!(level.neighbor_count(id, axis, dir), count, "{context}");
                    sum += count;
                }
            }
            sums.push(sum);
        }
        assert_eq!(level.face_neighbor_sums(), sums, "level {}", level.h());
    }
}

/// Every point's cell at every level holds the point: `floor(v·2^h)` per
/// axis, looked up by `find`, decodes back through `Cell::coord`.
fn assert_points_round_trip(ds: &Dataset, tree: &CountingTree) {
    for level in tree.levels() {
        let scale = (2.0f64).powi(level.h() as i32);
        for p in ds.iter() {
            let coords: Vec<u64> = p.iter().map(|&v| (v * scale).floor() as u64).collect();
            let id = level.find(&coords).expect("every point's cell exists");
            let cell = level.cell(id);
            assert!((0..coords.len()).all(|j| cell.coord(j) == coords[j]));
        }
    }
}

/// One level's cells by coordinates: `n`, `P` and the parent's
/// coordinates (empty at level 1, under the implicit root).
type CellTable = BTreeMap<Vec<u64>, (u64, Vec<u64>, Vec<u64>)>;

/// The half-space counts `P` of every cell of level `h`, by [`CellId`],
/// summed by [`Level::half_counts`] over the cell's children at level
/// `h + 1`; empty on the deepest level, which has no children.
fn derived_half_counts(tree: &CountingTree, h: usize) -> Vec<Vec<u64>> {
    let level = tree.level(h);
    if h == tree.deepest_level() {
        return vec![Vec::new(); level.n_cells()];
    }
    let children = tree.level(h + 1);
    level
        .iter()
        .map(|(_, cell)| children.half_counts(&cell.coords().collect::<Vec<_>>()))
        .collect()
}

/// The coordinates of the parent of the level-`h` cell at `coords`, `h ≥ 2`:
/// the cell that `find` returns for `coords >> 1` one level up, which must
/// exist.
fn parent_coords(tree: &CountingTree, h: usize, coords: &[u64]) -> Vec<u64> {
    let up: Vec<u64> = coords.iter().map(|c| c >> 1).collect();
    let parents = tree.level(h - 1);
    let id = parents.find(&up).expect("every cell has a parent");
    parents.cell(id).coords().collect()
}

/// Every level of `tree` as a [`CellTable`], whatever its id numbering,
/// with `P` from [`derived_half_counts`].
fn cell_tables(tree: &CountingTree) -> Vec<CellTable> {
    (1..=tree.deepest_level())
        .map(|h| {
            let level = tree.level(h);
            let mut halves = derived_half_counts(tree, h).into_iter();
            level
                .iter()
                .map(|(_, cell)| {
                    let coords: Vec<u64> = cell.coords().collect();
                    let parent = match h {
                        1 => Vec::new(),
                        _ => parent_coords(tree, h, &coords),
                    };
                    (coords, (cell.n(), halves.next().unwrap(), parent))
                })
                .collect()
        })
        .collect()
}

/// The cell tables of every level straight from the points: a point sits
/// in the level-`h` cell `⌊v·2^h⌋` per axis, in its lower half along `e_j`
/// when its level-`h + 1` coordinate on axis `j` is even, and under the
/// level-`h − 1` cell `⌊v·2^h⌋ >> 1`. The deepest level, `H − 1`, has no
/// finer level to split it, so its `P` is empty.
fn brute_force_tables(ds: &Dataset, resolutions: usize) -> Vec<CellTable> {
    let grid = |p: &[f64], h: usize| -> Vec<u64> {
        let scale = (2.0f64).powi(h as i32);
        p.iter().map(|&v| (v * scale).floor() as u64).collect()
    };
    (1..resolutions)
        .map(|h| {
            let mut table = CellTable::new();
            for p in ds.iter() {
                let coords = grid(p, h);
                let finer = if h + 1 < resolutions {
                    grid(p, h + 1)
                } else {
                    Vec::new()
                };
                let parent = match h {
                    1 => Vec::new(),
                    _ => coords.iter().map(|c| c >> 1).collect(),
                };
                let entry = table
                    .entry(coords)
                    .or_insert_with(|| (0, vec![0; finer.len()], parent));
                entry.0 += 1;
                for (half, f) in entry.1.iter_mut().zip(&finer) {
                    *half += u64::from(f & 1 == 0);
                }
            }
            table
        })
        .collect()
}

/// The packed key of a level-`h` cell, computed here from its coordinates:
/// `h` bits per coordinate, `⌊64/h⌋` coordinates per word, coordinate `j`
/// in word `j / ⌊64/h⌋` at bit `h·(j mod ⌊64/h⌋)`.
fn packed_key(h: usize, coords: &[u64]) -> Vec<u64> {
    let per_word = 64 / h;
    let mut key = vec![0u64; coords.len().div_ceil(per_word)];
    for (j, &c) in coords.iter().enumerate() {
        key[j / per_word] |= c << (h * (j % per_word));
    }
    key
}

/// The sorted build gives the cells of the brute-force tables, with their
/// counts and parents, at every level, and [`Level::half_counts`] sums
/// their half-space counts at every level but the deepest, which has no
/// children.
/// Each level numbers its cells in packed-key order, word 0 first: the
/// order the β-search's tie rule reads.
fn assert_build_equals_brute_force(ds: &Dataset, resolutions: usize) {
    let tree = CountingTree::build(ds, resolutions).unwrap();
    assert_eq!(tree.n_points(), ds.len());
    for level in tree.levels() {
        let h = level.h() as usize;
        let keys: Vec<Vec<u64>> = level
            .iter()
            .map(|(_, cell)| packed_key(h, &cell.coords().collect::<Vec<_>>()))
            .collect();
        assert!(
            keys.windows(2).all(|k| k[0] < k[1]),
            "level {h}: ids out of packed-key order"
        );
    }
    let (got, want) = (cell_tables(&tree), brute_force_tables(ds, resolutions));
    assert_eq!(got.len(), want.len(), "levels");
    for (h, (a, b)) in (1..).zip(got.iter().zip(&want)) {
        assert_eq!(a.len(), b.len(), "cells at level {h}");
        for ((coords, got), (want_coords, want)) in a.iter().zip(b) {
            assert_eq!(coords, want_coords, "level {h}");
            assert_eq!(got, want, "level {h} cell {coords:?}");
            let parent: Vec<u64> = coords.iter().map(|c| c >> 1).collect();
            assert!(h == 1 || got.2 == parent, "level {h} cell {coords:?}");
        }
    }
}

/// 20 000 points in 14 dimensions around eight centres, plus 10 % uniform
/// noise: the coarse cells hold thousands of points each, whose order
/// after the key sort is not their dataset order.
#[test]
fn build_equals_brute_force_on_crowded_cells() {
    let mut rng = StdRng::seed_from_u64(14);
    let centres: Vec<Vec<f64>> = (0..8)
        .map(|_| (0..14).map(|_| rng.gen_range(0.2..0.8)).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..20_000)
        .map(|i| {
            let centre = &centres[i % 8];
            (0..14)
                .map(|j| {
                    if i % 10 == 9 {
                        rng.gen::<f64>()
                    } else {
                        centre[j] + rng.gen_range(-0.1..0.1)
                    }
                })
                .collect()
        })
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let tree = CountingTree::build(&ds, 4).unwrap();
    let crowded = tree.level(1).iter().map(|(_, c)| c.n()).max().unwrap();
    assert!(
        crowded > 1_000,
        "the largest level-1 cell holds {crowded} points"
    );
    assert_build_equals_brute_force(&ds, 4);
}

/// A 2-d level of 1120 cells, one per point, answers every lookup like
/// the scan, and each cell holds its one point.
#[test]
fn a_large_level_answers_like_the_scan() {
    let rows: Vec<[f64; 2]> = (0..1_120u32)
        .map(|i| {
            let (x, y) = (i % 40, i / 40);
            [(f64::from(x) + 0.5) / 64.0, (f64::from(y) + 0.5) / 64.0]
        })
        .collect();
    let ds = Dataset::from_rows(&rows).unwrap();
    let grid = (0..1_120u64).map(|i| (i % 40, i / 40));
    let tree = CountingTree::build(&ds, 8).unwrap();
    let level = tree.level(6);
    assert_eq!(level.n_cells(), 1_120);
    for (x, y) in grid {
        let id = level.find(&[x, y]).unwrap();
        assert_eq!(level.cell(id).n(), 1);
    }
    assert_lookups_match_scan(&tree);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The level lookups answer exactly like a linear scan, including at
    /// `d = 1`, `d = 21, 22, 43, 64`, `H = 3` and `H = 64`, where coordinates reach
    /// `2^63 − 2^10` and `Upper` stops at the grid border of every level up
    /// to 53.
    #[test]
    fn lookups_equal_linear_scan((ds, h) in tree_case_strategy()) {
        let tree = CountingTree::build(&ds, h).unwrap();
        assert_lookups_match_scan(&tree);
        assert_points_round_trip(&ds, &tree);
    }

    /// A sorted build equals the brute-force tables, including at
    /// `d = 1`, `d = 21, 22, 43, 64`, `H = 3` and `H = 64`, where a key takes up
    /// to 64 words.
    #[test]
    fn build_equals_brute_force((ds, h) in tree_case_strategy()) {
        assert_build_equals_brute_force(&ds, h);
    }

    /// Every level counts every point exactly once, and on every level
    /// with children (all but the deepest) no derived half-space count
    /// exceeds its cell's count, on the wide and tall shapes too.
    #[test]
    fn levels_conserve_mass((ds, h) in tree_case_strategy()) {
        let tree = CountingTree::build(&ds, h).unwrap();
        for level in tree.levels() {
            let h = level.h() as usize;
            prop_assert_eq!(level.total_points(), ds.len() as u64);
            let halves = if h == tree.deepest_level() { 0 } else { tree.dims() };
            for ((_, cell), p) in level.iter().zip(derived_half_counts(&tree, h)) {
                prop_assert_eq!(p.len(), halves);
                prop_assert!(p.iter().all(|&p| p <= cell.n()));
            }
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
                for c in cell.coords() {
                    prop_assert!(c < level.grid_extent());
                }
            }
        }
    }

    /// Derived half-space counts, one per axis, never exceed the cell
    /// count: P[j] ∈ [0, n], on levels `1 … H−2`, the ones with children,
    /// on the wide and tall shapes too, whose key ranges span words.
    #[test]
    fn half_space_counts_bounded((ds, h) in tree_case_strategy()) {
        let tree = CountingTree::build(&ds, h).unwrap();
        for h in 1..tree.deepest_level() {
            let children = tree.level(h + 1);
            for (_, cell) in tree.level(h).iter() {
                let halves = children.half_counts(&cell.coords().collect::<Vec<_>>());
                prop_assert_eq!(halves.len(), tree.dims());
                prop_assert!(halves.iter().all(|&p| p <= cell.n()));
            }
        }
    }

    /// Each cell's count equals the sum of its children's counts, and
    /// every child's parent, the cell at `coords >> 1` one level up,
    /// exists and holds at least as many points.
    #[test]
    fn parent_child_mass((ds, resolutions) in tree_case_strategy()) {
        let tree = CountingTree::build(&ds, resolutions).unwrap();
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            // Accumulate child masses into parent keys.
            use std::collections::HashMap;
            let mut acc: HashMap<Vec<u64>, u64> = HashMap::new();
            for (id, cc) in child.iter() {
                let key: Vec<u64> = cc.coords().map(|c| c >> 1).collect();
                let parent = level.find(&key).map(|p| level.cell(p));
                prop_assert!(parent.is_some(), "level {} cell {id} has no parent", h + 1);
                let parent = parent.unwrap();
                prop_assert!(parent.coords().eq(key.iter().copied()), "level {} cell {id}", h + 1);
                prop_assert!(parent.n() >= cc.n());
                *acc.entry(key).or_insert(0) += cc.n();
            }
            for (_, cell) in level.iter() {
                let key: Vec<u64> = cell.coords().collect();
                prop_assert_eq!(acc.get(&key).copied().unwrap_or(0), cell.n());
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
