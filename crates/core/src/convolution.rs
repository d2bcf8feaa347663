//! Laplacian convolution over a Counting-tree level.
//!
//! The masks are integer approximations of the Laplacian filter — a
//! second-derivative operator that reacts to density transitions (Figure 2 of
//! the paper). MrCC uses the order-3 mask whose only non-zero entries are the
//! centre (`2d`) and the `2d` face elements (`−1`): convolving a cell is then
//! `O(d)` instead of the `O(3^d)` a full mask costs. The fit convolves a whole
//! level at once with [`convolve_level`]; [`convolve`] is the per-cell
//! definition it reproduces.

use mrcc_counting_tree::{CellId, Direction, Level};

use crate::config::MaskKind;

/// Convolved value of the face-only order-3 Laplacian at `id`:
/// `2d·n(center) − Σ_j (n(lower face_j) + n(upper face_j))`.
///
/// Missing neighbors (space border or unrefined empty region) contribute 0 —
/// empty space has zero density. `mask` has one value; the parameter stays
/// only because the `perfbench` benchmark still passes `config.mask`.
pub fn convolve(level: &Level, id: CellId, dims: usize, mask: MaskKind) -> i64 {
    let MaskKind::FaceOnly = mask;
    let center = level.cell(id).n() as i64;
    let mut acc = 2 * dims as i64 * center;
    for j in 0..dims {
        acc -= level.neighbor_count(id, j, Direction::Lower) as i64;
        acc -= level.neighbor_count(id, j, Direction::Upper) as i64;
    }
    acc
}

/// Face-only convolved value of every cell of `level`, indexed by
/// [`CellId`]: exactly [`convolve`] at each cell, from one
/// [`Level::face_neighbor_sums`] pass instead of `2d` lookups per cell.
pub fn convolve_level(level: &Level, dims: usize) -> Vec<i64> {
    let centre_weight = 2 * dims as i64;
    level
        .iter()
        .zip(level.face_neighbor_sums())
        .map(|((_, cell), faces)| centre_weight * cell.n() as i64 - faces as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::Dataset;
    use mrcc_counting_tree::CountingTree;

    /// Grid with a dense cell surrounded by sparse ones.
    fn bump_tree() -> CountingTree {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        // 10 points in cell (1,1) of level 2 (coords in [0.25,0.5) × [0.25,0.5)).
        for i in 0..10 {
            rows.push([0.30 + 0.001 * i as f64, 0.30 + 0.001 * i as f64]);
        }
        // 2 points in the right face neighbor (2,1).
        rows.push([0.55, 0.30]);
        rows.push([0.60, 0.35]);
        // 1 point in a corner neighbor (2,2) — face-only mask ignores it.
        rows.push([0.55, 0.55]);
        CountingTree::build(&Dataset::from_rows(&rows).unwrap(), 4).unwrap()
    }

    #[test]
    fn face_only_reacts_to_density_bump() {
        let tree = bump_tree();
        let l2 = tree.level(2);
        let dense = l2.find(&[1, 1]).unwrap();
        // 2·2·10 − (2 face-neighbor points) = 38.
        assert_eq!(convolve(l2, dense, 2, MaskKind::FaceOnly), 38);
        let sparse = l2.find(&[2, 1]).unwrap();
        // 2·2·2 − 10 (left face) − 1? (2,2) is a *face* neighbor of (2,1)
        // along axis 1 → 8 − 10 − 1 = −3.
        assert_eq!(convolve(l2, sparse, 2, MaskKind::FaceOnly), -3);
        assert!(
            convolve(l2, dense, 2, MaskKind::FaceOnly)
                > convolve(l2, sparse, 2, MaskKind::FaceOnly)
        );
    }

    #[test]
    fn isolated_cell_convolves_to_positive_mass() {
        // Sec. III-A: an isolated cell of `n` points convolves to its centre
        // weight `2d` times `n`.
        for dims in 1usize..=4 {
            let rows = vec![vec![0.1; dims]; 3];
            let tree = CountingTree::build(&Dataset::from_rows(&rows).unwrap(), 4).unwrap();
            let l2 = tree.level(2);
            let (id, _) = l2.iter().next().unwrap();
            assert_eq!(
                convolve(l2, id, dims, MaskKind::FaceOnly),
                2 * dims as i64 * 3,
                "d={dims}"
            );
        }
    }

    #[test]
    fn level_pass_does_not_carry_across_axes() {
        // At level 2, (3, 0) stepped up axis 0 without a border check would
        // be the key of (0, 1). The two cells are not neighbors.
        let ds = Dataset::from_rows(&[[0.99, 0.01], [0.01, 0.3]]).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let l2 = tree.level(2);
        assert!(l2.find(&[3, 0]).is_some() && l2.find(&[0, 1]).is_some());
        assert_eq!(convolve_level(l2, 2), vec![4, 4]);
    }

    #[test]
    fn border_cells_do_not_wrap() {
        // A cell at coordinate 0: its lower neighbor is off-grid, not the
        // opposite border.
        let ds = Dataset::from_rows(&[[0.01, 0.01], [0.99, 0.99]]).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let l2 = tree.level(2);
        let low = l2.find(&[0, 0]).unwrap();
        // The far cell (3,3) must not leak into (0,0)'s neighborhood.
        assert_eq!(convolve(l2, low, 2, MaskKind::FaceOnly), 4);
    }

    mod level_pass_equals_per_cell {
        use super::*;
        use proptest::prelude::*;

        /// The largest `f64` below 1: at level `h ≤ 53` it lands in the last
        /// grid cell, `2^h − 1`.
        const LAST_BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

        /// The largest `f64` below ½: one cell below ½'s at every level up
        /// to 54, so the two are face neighbors there.
        const BELOW_HALF: f64 = 0.5 - f64::EPSILON / 4.0;

        /// Strategy: `d ∈ {1, 2..=8, 21, 22, 43, 64}`, which at `H = 4`
        /// takes one to four key words of 21 fields, and `H ∈ {3..=7, 64}`,
        /// where the deepest level holds one field per word.
        fn shape_strategy() -> impl Strategy<Value = (usize, usize)> {
            (0usize..=11, 2usize..=7).prop_map(|(a, b)| {
                let d = match a {
                    0 => 21,
                    9 => 22,
                    10 => 43,
                    11 => 64,
                    a => a.min(8),
                };
                (d, if b == 2 { 64 } else { b })
            })
        }

        /// Strategy: one coordinate: the borders of the unit cube, the two
        /// sides of ½, the centres of an 8-bin grid, or uniform.
        fn coordinate_strategy() -> impl Strategy<Value = f64> {
            (0u8..=9, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
                0 => 0.0,
                1 => LAST_BELOW_ONE,
                2 => BELOW_HALF,
                3 => 0.5,
                4..=7 => ((x * 8.0).floor() + 0.5) / 8.0,
                _ => x,
            })
        }

        /// Strategy: a tree whose points are copies of one template row with
        /// up to three coordinates redrawn, so cells have face neighbors even
        /// at `d = 64`.
        fn tree_strategy() -> impl Strategy<Value = CountingTree> {
            shape_strategy().prop_flat_map(|(d, h)| {
                let row = proptest::collection::vec(coordinate_strategy(), d..=d);
                let edits = proptest::collection::vec(
                    proptest::collection::vec((0..d, coordinate_strategy()), 0..=3),
                    1..40,
                );
                (row, edits).prop_map(move |(template, edits)| {
                    let rows: Vec<Vec<f64>> = edits
                        .into_iter()
                        .map(|edit| {
                            let mut row = template.clone();
                            for (j, v) in edit {
                                row[j] = v;
                            }
                            row
                        })
                        .collect();
                    CountingTree::build(&Dataset::from_rows(&rows).unwrap(), h).unwrap()
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// On every cell of every level, the sort-merge level pass gives
            /// the per-cell face-only convolution.
            #[test]
            fn on_every_level(tree in tree_strategy()) {
                let dims = tree.dims();
                for level in tree.levels() {
                    let per_cell: Vec<i64> = level
                        .iter()
                        .map(|(id, _)| convolve(level, id, dims, MaskKind::FaceOnly))
                        .collect();
                    prop_assert_eq!(convolve_level(level, dims), per_cell, "level {}", level.h());
                }
            }
        }
    }
}
