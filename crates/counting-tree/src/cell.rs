//! A single Counting-tree cell.
//!
//! The paper's cell structure is `<loc, n, P[d], usedCell, ptr>`. Here `loc`
//! and `ptr` are subsumed by the absolute grid coordinates (see the crate
//! docs); `n`, `P[d]` and `usedCell` are stored verbatim.

use mrcc_common::num::grid_to_f64;

/// Index of a cell within its level's arena.
pub type CellId = u32;

/// A `d`-dimensional hyper-cube cell of side `1/2^h` at tree level `h`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Absolute grid coordinates, one per axis, each in `[0, 2^h)`.
    coords: Box<[u64]>,
    /// Number of points inside the cell (`a_h.n`).
    n: u64,
    /// Half-space counts: `p[j]` = points in the **lower** half of the cell
    /// along axis `e_j` (`a_h.P[j]`).
    p: Box<[u64]>,
    /// The paper's `usedCell` flag — set once the β-cluster search consumed
    /// this cell as a convolution winner.
    used: bool,
}

impl Cell {
    /// Creates an empty cell at the given coordinates.
    pub(crate) fn new(coords: Box<[u64]>) -> Self {
        let d = coords.len();
        Cell {
            coords,
            n: 0,
            p: vec![0; d].into_boxed_slice(),
            used: false,
        }
    }

    /// Counts one point; `lower_half[j]` says whether the point lies in the
    /// lower half of this cell along axis `e_j`.
    pub(crate) fn count_point(&mut self, lower_half: impl Iterator<Item = bool>) {
        self.n += 1;
        for (slot, lower) in self.p.iter_mut().zip(lower_half) {
            if lower {
                *slot += 1;
            }
        }
    }

    /// Absolute grid coordinates of the cell.
    #[inline]
    pub fn coords(&self) -> &[u64] {
        &self.coords
    }

    /// Point count `n`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Half-space count `P[j]`: points in the lower half along axis `e_j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    #[inline]
    pub fn half_count(&self, j: usize) -> u64 {
        self.p[j]
    }

    /// All half-space counts.
    #[inline]
    pub fn half_counts(&self) -> &[u64] {
        &self.p
    }

    /// The paper's `usedCell` flag.
    #[inline]
    pub fn used(&self) -> bool {
        self.used
    }

    pub(crate) fn set_used(&mut self, used: bool) {
        self.used = used;
    }

    /// Relative position bit (`loc`) of axis `e_j`: `true` when the cell sits
    /// in the **upper** half of its parent along `e_j`.
    #[inline]
    pub fn loc_bit(&self, j: usize) -> bool {
        self.coords[j] & 1 == 1
    }

    /// Coordinates of the immediate parent cell (one level up).
    pub fn parent_coords(&self) -> Box<[u64]> {
        self.coords.iter().map(|&c| c >> 1).collect()
    }

    /// Lower bound of the cell on axis `e_j`, given the level's cell side.
    #[inline]
    pub fn lower_bound(&self, j: usize, side: f64) -> f64 {
        grid_to_f64(self.coords[j]) * side
    }

    /// Upper bound of the cell on axis `e_j`, given the level's cell side.
    #[inline]
    pub fn upper_bound(&self, j: usize, side: f64) -> f64 {
        grid_to_f64(self.coords[j] + 1) * side
    }

    /// Approximate heap footprint in bytes (for the memory experiments).
    pub fn memory_bytes(&self) -> usize {
        size_of::<Cell>() + (self.coords.len() + self.p.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_updates_half_spaces() {
        let mut c = Cell::new(vec![2, 3].into_boxed_slice());
        c.count_point([true, false].into_iter());
        c.count_point([true, true].into_iter());
        c.count_point([false, true].into_iter());
        assert_eq!(c.n(), 3);
        assert_eq!(c.half_count(0), 2);
        assert_eq!(c.half_count(1), 2);
        assert_eq!(c.half_counts(), &[2, 2]);
    }

    #[test]
    fn loc_bits_and_parent() {
        let c = Cell::new(vec![5, 2, 7].into_boxed_slice());
        assert!(c.loc_bit(0)); // 5 is odd → upper half of parent
        assert!(!c.loc_bit(1)); // 2 is even → lower half
        assert!(c.loc_bit(2));
        assert_eq!(&*c.parent_coords(), &[2, 1, 3]);
    }

    #[test]
    fn bounds_scale_with_side() {
        let c = Cell::new(vec![3].into_boxed_slice());
        let side = 0.25; // level 2
        assert!((c.lower_bound(0, side) - 0.75).abs() < 1e-12);
        assert!((c.upper_bound(0, side) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn used_flag_round_trips() {
        let mut c = Cell::new(vec![0].into_boxed_slice());
        assert!(!c.used());
        c.set_used(true);
        assert!(c.used());
    }
}
