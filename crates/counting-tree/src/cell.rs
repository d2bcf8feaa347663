//! A view of one Counting-tree cell.
//!
//! The paper's cell structure is `<loc, n, P[d], usedCell, ptr>`. Here `loc`
//! and `ptr` are subsumed by the absolute grid coordinates (see the crate
//! docs); `n`, `P[d]` and `usedCell` are stored verbatim, each field in one
//! flat array per level. A [`Cell`] is a `Copy` view of one cell's entries.

use mrcc_common::num::grid_to_f64;

/// Index of a cell within its level, in first-insertion order.
pub type CellId = u32;

/// A `d`-dimensional hyper-cube cell of side `1/2^h` at tree level `h`: its
/// grid coordinates, half-space counts `P`, count `n` and `usedCell` flag.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    pub(crate) coords: &'a [u64],
    pub(crate) p: &'a [u64],
    pub(crate) n: u64,
    pub(crate) used: bool,
}

impl<'a> Cell<'a> {
    /// Absolute grid coordinates of the cell, one per axis, each in
    /// `[0, 2^h)`.
    #[inline]
    pub fn coords(&self) -> &'a [u64] {
        self.coords
    }

    /// Point count `n`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Half-space count `P[j]`: points in the **lower** half of the cell
    /// along axis `e_j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    #[inline]
    pub fn half_count(&self, j: usize) -> u64 {
        self.p[j]
    }

    /// All half-space counts.
    #[inline]
    pub fn half_counts(&self) -> &'a [u64] {
        self.p
    }

    /// The paper's `usedCell` flag — set once the β-cluster search consumed
    /// this cell as a convolution winner.
    #[inline]
    pub fn used(&self) -> bool {
        self.used
    }

    /// Relative position bit (`loc`) of axis `e_j`: `true` when the cell sits
    /// in the **upper** half of its parent along `e_j`.
    #[inline]
    pub fn loc_bit(&self, j: usize) -> bool {
        self.coords[j] & 1 == 1
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(coords: &'a [u64], p: &'a [u64]) -> Cell<'a> {
        Cell {
            coords,
            p,
            n: 3,
            used: false,
        }
    }

    #[test]
    fn loc_bits() {
        let c = view(&[5, 2, 7], &[0, 0, 0]);
        assert!(c.loc_bit(0)); // 5 is odd → upper half of parent
        assert!(!c.loc_bit(1)); // 2 is even → lower half
        assert!(c.loc_bit(2));
    }

    #[test]
    fn bounds_scale_with_side() {
        let c = view(&[3], &[0]);
        let side = 0.25; // level 2
        assert!((c.lower_bound(0, side) - 0.75).abs() < 1e-12);
        assert!((c.upper_bound(0, side) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn view_reads_its_fields() {
        let c = view(&[1, 2], &[2, 1]);
        assert_eq!(c.n(), 3);
        assert_eq!(c.half_count(0), 2);
        assert_eq!(c.half_counts(), &[2, 1]);
        assert_eq!(c.coords(), &[1, 2]);
        assert!(!c.used());
    }
}
