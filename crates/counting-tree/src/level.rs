//! One resolution level of the Counting-tree.
//!
//! Level `h` is a hyper-grid of side `ξ_h = 1/2^h`. Only non-empty cells are
//! stored: an arena (`Vec<Cell>`) plus a hash index from absolute grid
//! coordinates to arena slots. This is the "each node is an array of cells"
//! view of the paper with `O(1)` expected-time neighbor resolution instead of
//! a root-to-level tree walk.

use crate::cell::{Cell, CellId};
use crate::hasher::FxHashMap;
use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::num::{bounded_to_u32, powi_exp, u32_to_usize};

/// Direction of a face neighbor along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Neighbor at `coords[j] − 1`.
    Lower,
    /// Neighbor at `coords[j] + 1`.
    Upper,
}

/// A fully materialized resolution level.
#[derive(Debug)]
pub struct Level {
    h: u32,
    cells: Vec<Cell>,
    index: FxHashMap<Box<[u64]>, CellId>,
}

impl Level {
    pub(crate) fn new(h: u32) -> Self {
        Level {
            h,
            cells: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// The level number `h` (cells have side `1/2^h`).
    #[inline]
    pub fn h(&self) -> u32 {
        self.h
    }

    /// Cell side size `ξ_h = 1/2^h`.
    #[inline]
    pub fn side(&self) -> f64 {
        // Exact for h ≤ 1023; h is capped far below that.
        (0.5f64).powi(powi_exp(u32_to_usize(self.h)))
    }

    /// Number of grid positions per axis (`2^h`), saturating at `u64::MAX`.
    #[inline]
    pub fn grid_extent(&self) -> u64 {
        1u64.checked_shl(self.h).unwrap_or(u64::MAX)
    }

    /// Number of materialized (non-empty) cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Borrow a cell by id.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[u32_to_usize(id)] // xtask-allow: indexing — documented `# Panics` contract
    }

    /// Iterate over `(id, cell)` pairs in arena order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CellId, &Cell)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (bounded_to_u32(i), c))
    }

    /// Look up the cell at the given absolute coordinates.
    #[inline]
    pub fn find(&self, coords: &[u64]) -> Option<CellId> {
        self.index.get(coords).copied()
    }

    /// The face neighbor of `id` along `axis` in `dir`, if that grid position
    /// is materialized (the paper's `N I`/`N E`; a missing external neighbor
    /// means either the space border or an unrefined empty region).
    pub fn neighbor(&self, id: CellId, axis: usize, dir: Direction) -> Option<CellId> {
        let cell = self.cell(id);
        let c = cell.coords()[axis];
        let nc = match dir {
            Direction::Lower => c.checked_sub(1)?,
            Direction::Upper => {
                let up = c + 1;
                if up >= self.grid_extent() {
                    return None;
                }
                up
            }
        };
        // Copy the coordinates into a stack key and patch one axis: no heap
        // allocation per lookup (cells never exceed MAX_DIMS axes).
        let coords = cell.coords();
        let mut buf = [0u64; MAX_DIMS];
        let key = &mut buf[..coords.len()];
        key.copy_from_slice(coords);
        key[axis] = nc;
        self.find(key)
    }

    /// Point count of the face neighbor, 0 when absent (how the convolution
    /// treats empty space).
    #[inline]
    pub fn neighbor_count(&self, id: CellId, axis: usize, dir: Direction) -> u64 {
        self.neighbor(id, axis, dir)
            .map_or(0, |nid| self.cell(nid).n())
    }

    /// Marks a cell's `usedCell` flag.
    pub fn set_used(&mut self, id: CellId, used: bool) {
        self.cells[u32_to_usize(id)].set_used(used);
    }

    /// Fetches the cell at `coords`, materializing it if absent, and returns
    /// its id.
    pub(crate) fn get_or_insert(&mut self, coords: &[u64]) -> CellId {
        if let Some(&id) = self.index.get(coords) {
            return id;
        }
        let id = bounded_to_u32(self.cells.len());
        let key: Box<[u64]> = coords.into();
        self.cells.push(Cell::new(key.clone()));
        self.index.insert(key, id);
        id
    }

    pub(crate) fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        &mut self.cells[u32_to_usize(id)]
    }

    /// Sum of point counts over all cells (must equal `η`; used by tests and
    /// debug assertions).
    pub fn total_points(&self) -> u64 {
        self.cells.iter().map(Cell::n).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let cells: usize = self.cells.iter().map(Cell::memory_bytes).sum();
        // Index entries: key box + id + bucket overhead (~1.1 load factor).
        let d = self.cells.first().map_or(0, |c| c.coords().len());
        let index = self.index.len() * (d * 8 + size_of::<(Box<[u64]>, CellId)>());
        cells + index + size_of::<Level>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_with(coords: &[&[u64]]) -> Level {
        let mut l = Level::new(2);
        for c in coords {
            let id = l.get_or_insert(c);
            l.cell_mut(id).count_point(c.iter().map(|_| false));
        }
        l
    }

    #[test]
    fn insert_and_find() {
        let l = level_with(&[&[0, 1], &[3, 2]]);
        assert_eq!(l.n_cells(), 2);
        assert!(l.find(&[0, 1]).is_some());
        assert!(l.find(&[1, 1]).is_none());
    }

    #[test]
    fn get_or_insert_is_idempotent() {
        let mut l = Level::new(3);
        let a = l.get_or_insert(&[1, 2]);
        let b = l.get_or_insert(&[1, 2]);
        assert_eq!(a, b);
        assert_eq!(l.n_cells(), 1);
    }

    #[test]
    fn neighbors_respect_borders() {
        // Level 2 → coordinates in [0, 4).
        let l = level_with(&[&[0, 0], &[1, 0], &[3, 0]]);
        let id0 = l.find(&[0, 0]).unwrap();
        let id3 = l.find(&[3, 0]).unwrap();
        // Lower neighbor of coordinate 0 falls off the space border.
        assert_eq!(l.neighbor(id0, 0, Direction::Lower), None);
        // Upper neighbor of coordinate 3 falls off the border at extent 4.
        assert_eq!(l.neighbor(id3, 0, Direction::Upper), None);
        // Materialized neighbor found.
        assert_eq!(l.neighbor(id0, 0, Direction::Upper), l.find(&[1, 0]));
        // Unmaterialized (empty) neighbor is None, counted as 0.
        assert_eq!(l.neighbor(id0, 1, Direction::Upper), None);
        assert_eq!(l.neighbor_count(id0, 1, Direction::Upper), 0);
        assert_eq!(l.neighbor_count(id0, 0, Direction::Upper), 1);
    }

    #[test]
    fn neighbor_symmetry() {
        let l = level_with(&[&[1, 1], &[2, 1]]);
        let a = l.find(&[1, 1]).unwrap();
        let b = l.find(&[2, 1]).unwrap();
        assert_eq!(l.neighbor(a, 0, Direction::Upper), Some(b));
        assert_eq!(l.neighbor(b, 0, Direction::Lower), Some(a));
    }

    #[test]
    fn side_halves_per_level() {
        assert_eq!(Level::new(1).side(), 0.5);
        assert_eq!(Level::new(3).side(), 0.125);
        assert_eq!(Level::new(2).grid_extent(), 4);
    }

    #[test]
    fn total_points_sums_counts() {
        let l = level_with(&[&[0, 0], &[1, 0], &[3, 0]]);
        assert_eq!(l.total_points(), 3);
    }

    #[test]
    fn memory_estimate_grows_with_cells() {
        let small = level_with(&[&[0, 0]]);
        let big = level_with(&[&[0, 0], &[1, 0], &[2, 0], &[3, 0]]);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
