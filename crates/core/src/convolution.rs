//! Laplacian convolution over a Counting-tree level.
//!
//! The masks are integer approximations of the Laplacian filter — a
//! second-derivative operator that reacts to density transitions (Figure 2 of
//! the paper). MrCC uses the order-3 mask whose only non-zero entries are the
//! centre (`2d`) and the `2d` face elements (`−1`): convolving a cell is then
//! `O(d)` instead of the `O(3^d)` a full mask costs. The full mask is kept
//! behind [`MaskKind::Full`] for the ablation study.

use mrcc_counting_tree::{CellId, Direction, Level};

use crate::config::MaskKind;

/// Convolved value of the face-only order-3 Laplacian at `id`:
/// `2d·n(center) − Σ_j (n(lower face_j) + n(upper face_j))`.
///
/// Missing neighbors (space border or unrefined empty region) contribute 0 —
/// empty space has zero density.
pub fn convolve_face_only(level: &Level, id: CellId, dims: usize) -> i64 {
    let center = level.cell(id).n() as i64;
    let mut acc = 2 * dims as i64 * center;
    for j in 0..dims {
        acc -= level.neighbor_count(id, j, Direction::Lower) as i64;
        acc -= level.neighbor_count(id, j, Direction::Upper) as i64;
    }
    acc
}

/// Largest dimensionality [`MrCC::fit`](crate::MrCC::fit) accepts with
/// [`MaskKind::Full`]: past it the `3^d` offsets per cell make a fit
/// infeasible, and at `d ≥ 40` the centre weight `3^d − 1` overflows `i64`.
pub(crate) const MAX_FULL_MASK_DIMS: usize = 10;

/// Convolved value of the *full* order-3 Laplacian at `id`: centre weight
/// `3^d − 1`, every one of the `3^d − 1` neighbors (faces and corners) `−1`.
///
/// Cost is `O(3^d · d)`; callers must keep `d` small (at most
/// [`MAX_FULL_MASK_DIMS`], mirroring the paper's remark that a 10-dimensional
/// cell already has 59,028 corner elements; the ablation bench uses `d ≤ 8`).
pub fn convolve_full(level: &Level, id: CellId, dims: usize) -> i64 {
    let cell = level.cell(id);
    let center = cell.n() as i64;
    let weight = 3i64.pow(dims as u32) - 1;
    let mut acc = weight * center;

    // Enumerate all 3^d offsets in {−1, 0, +1}^d except the origin.
    let mut key: Vec<u64> = cell.coords().to_vec();
    let extent = level.grid_extent();
    let n_offsets = 3usize.pow(dims as u32);
    'offsets: for code in 0..n_offsets {
        let mut c = code;
        let mut all_zero = true;
        for j in 0..dims {
            let trit = (c % 3) as i64 - 1; // −1, 0, +1
            c /= 3;
            let base = cell.coords()[j];
            let coord = base as i64 + trit;
            if coord < 0 || coord as u64 >= extent {
                // Off the grid: restore and skip this offset.
                key[..dims].copy_from_slice(&cell.coords()[..dims]);
                continue 'offsets;
            }
            key[j] = coord as u64;
            if trit != 0 {
                all_zero = false;
            }
        }
        if !all_zero {
            if let Some(nid) = level.find(&key) {
                acc -= level.cell(nid).n() as i64;
            }
        }
        key[..dims].copy_from_slice(&cell.coords()[..dims]);
    }
    acc
}

/// Dispatches on the configured mask kind.
pub fn convolve(level: &Level, id: CellId, dims: usize, mask: MaskKind) -> i64 {
    match mask {
        MaskKind::FaceOnly => convolve_face_only(level, id, dims),
        MaskKind::Full => convolve_full(level, id, dims),
    }
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
        assert_eq!(convolve_face_only(l2, dense, 2), 38);
        let sparse = l2.find(&[2, 1]).unwrap();
        // 2·2·2 − 10 (left face) − 1? (2,2) is a *face* neighbor of (2,1)
        // along axis 1 → 8 − 10 − 1 = −3.
        assert_eq!(convolve_face_only(l2, sparse, 2), -3);
        assert!(convolve_face_only(l2, dense, 2) > convolve_face_only(l2, sparse, 2));
    }

    #[test]
    fn full_mask_also_subtracts_corners() {
        let tree = bump_tree();
        let l2 = tree.level(2);
        let dense = l2.find(&[1, 1]).unwrap();
        // Full: (3² − 1)·10 − (faces: 2) − (corner (2,2): 1) = 80 − 3 = 77.
        assert_eq!(convolve_full(l2, dense, 2), 77);
    }

    #[test]
    fn isolated_cell_convolves_to_positive_mass() {
        // Sec. III-A: an isolated cell of `n` points convolves to its centre
        // weight times `n` — `2d` for the face-only mask, `3^d − 1` for the
        // full mask.
        for (dims, face, full) in [(1usize, 2i64, 2i64), (2, 4, 8), (3, 6, 26), (4, 8, 80)] {
            let rows = vec![vec![0.1; dims]; 3];
            let tree = CountingTree::build(&Dataset::from_rows(&rows).unwrap(), 4).unwrap();
            let l2 = tree.level(2);
            let (id, _) = l2.iter().next().unwrap();
            assert_eq!(
                convolve(l2, id, dims, MaskKind::FaceOnly),
                face * 3,
                "d={dims}"
            );
            assert_eq!(convolve(l2, id, dims, MaskKind::Full), full * 3, "d={dims}");
        }
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let tree = bump_tree();
        let l2 = tree.level(2);
        let dense = l2.find(&[1, 1]).unwrap();
        assert_eq!(
            convolve(l2, dense, 2, MaskKind::FaceOnly),
            convolve_face_only(l2, dense, 2)
        );
        assert_eq!(
            convolve(l2, dense, 2, MaskKind::Full),
            convolve_full(l2, dense, 2)
        );
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
        assert_eq!(convolve_face_only(l2, low, 2), 4);
        assert_eq!(convolve_full(l2, low, 2), 8);
    }
}
