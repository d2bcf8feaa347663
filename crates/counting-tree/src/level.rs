//! One resolution level of the Counting-tree: a flat array per cell field,
//! in packed-key order (see the crate docs).

use std::cmp::Ordering;

use crate::cell::{Cell, CellId, KeyLayout};
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
///
/// One array per cell field, indexed by [`CellId`]: the packed `keys` with
/// stride `W` (see `KeyLayout`), the counts `n`, the half-space counts `p`
/// with stride `d` and `parents` (0 at level 1, under the implicit root).
/// The cells are in packed-key order, word 0 most significant, so a lookup
/// is a binary search over `keys`.
///
/// The deepest level, `H − 1`, keeps no half-space counts: the binomial
/// test reads the `P` of a winner's parent only, and no winner sits below
/// the deepest level, so that level is never a parent. Its `p` is empty and
/// its cells' [`Cell::half_counts`] are empty slices.
#[derive(Debug)]
pub struct Level {
    h: u32,
    d: usize,
    layout: KeyLayout,
    words: usize,
    keys: Vec<u64>,
    n: Vec<u32>,
    /// Entries of `p` per cell: `d`, or 0 on a level without half-space
    /// counts.
    p_stride: usize,
    p: Vec<u32>,
    parents: Vec<CellId>,
}

impl Level {
    /// An empty level whose arrays hold exactly `cells` cells, with `P`
    /// when `half_counts` is set: the build fills it with
    /// [`Level::push_cell`], then puts it in key order with
    /// [`Level::sort_cells`].
    pub(crate) fn with_capacity(h: u32, d: usize, cells: usize, half_counts: bool) -> Self {
        let layout = KeyLayout::new(h);
        let words = layout.words(d);
        let p_stride = if half_counts { d } else { 0 };
        Level {
            h,
            d,
            layout,
            words,
            keys: Vec::with_capacity(cells * words),
            n: Vec::with_capacity(cells),
            p_stride,
            p: Vec::with_capacity(cells * p_stride),
            parents: Vec::with_capacity(cells),
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
        self.n.len()
    }

    /// View of a cell by id.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        let i = u32_to_usize(id);
        Cell {
            key: self.key(id),
            layout: self.layout,
            d: self.d,
            p: &self.p[i * self.p_stride..(i + 1) * self.p_stride],
            n: self.n[i],
        }
    }

    /// Iterate over `(id, cell)` pairs in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CellId, Cell<'_>)> + '_ {
        self.ids().map(|id| (id, self.cell(id)))
    }

    /// Look up the cell at the given absolute coordinates. `None` when no
    /// such cell is materialized, when `coords` does not have one entry per
    /// axis, or when a coordinate is outside the level's `2^h` grid.
    pub fn find(&self, coords: &[u64]) -> Option<CellId> {
        if coords.len() != self.d || coords.iter().any(|&c| c > self.layout.top()) {
            return None;
        }
        let mut buf = [0u64; MAX_DIMS];
        let key = buf.get_mut(..self.words)?;
        self.layout.pack(coords.iter().copied(), key);
        self.search(key)
    }

    /// The face neighbor of `id` along `axis` in `dir`, if that grid position
    /// is materialized (the paper's `N I`/`N E`; a missing external neighbor
    /// means either the space border or an unrefined empty region). `None`
    /// also for an axis outside `0..d`.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn neighbor(&self, id: CellId, axis: usize, dir: Direction) -> Option<CellId> {
        if axis >= self.d {
            return None;
        }
        let c = self.layout.field(self.key(id), axis)?;
        let (word, shift) = self.layout.locate(axis);
        let mut buf = [0u64; MAX_DIMS];
        let key = buf.get_mut(..self.words)?;
        key.copy_from_slice(self.key(id));
        let w = key.get_mut(word)?;
        // A packed field carries into the next axis, so the border is checked
        // here: past it no cell exists.
        *w = match dir {
            Direction::Lower if c > 0 => *w - (1 << shift),
            Direction::Upper if c < self.layout.top() => *w + (1 << shift),
            _ => return None,
        };
        self.search(key)
    }

    /// Point count of the face neighbor, 0 when absent (how the convolution
    /// treats empty space).
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "ids from the search are in range")]
    pub fn neighbor_count(&self, id: CellId, axis: usize, dir: Direction) -> u64 {
        self.neighbor(id, axis, dir)
            .map_or(0, |nid| u64::from(self.n[u32_to_usize(nid)]))
    }

    /// Per cell, indexed by [`CellId`], the point count summed over its `2d`
    /// face neighbors: the neighbor term of the face-only convolution, for
    /// the whole level at once and without a lookup per cell.
    ///
    /// Adding 1 to a coordinate below `2^h − 1` changes one field of one
    /// word and carries nowhere, so it keeps the key order: per axis `j`,
    /// the keys `key + e_j` of the cells off the upper border form a sorted
    /// sequence, and one two-pointer merge against the level's sorted keys
    /// finds every upper neighbor pair. Each pair adds each cell's count to
    /// the other's sum. `O(cells·d·W)` over sequential memory; the only
    /// allocation is the returned sums.
    pub fn face_neighbor_sums(&self) -> Vec<u64> {
        let w = self.words;
        let mut sums = vec![0u64; self.n_cells()];
        let top = self.layout.top();
        for axis in 0..self.d {
            let (word, shift) = self.layout.locate(axis);
            let mut b = 0;
            for (a, key) in self.keys.chunks_exact(w).enumerate() {
                if key.get(word).is_none_or(|&kw| (kw >> shift) & top == top) {
                    continue;
                }
                // Every key before `b` is below the previous target, so below
                // this one too.
                b = b.max(a + 1);
                #[expect(clippy::indexing_slicing, reason = "a, b < cells")]
                while let Some(other) = self.keys.get(b * w..(b + 1) * w) {
                    match cmp_stepped(other, key, word, 1 << shift) {
                        Ordering::Less => b += 1,
                        Ordering::Equal => {
                            sums[a] += u64::from(self.n[b]);
                            sums[b] += u64::from(self.n[a]);
                            break;
                        }
                        Ordering::Greater => break,
                    }
                }
            }
        }
        sums
    }

    /// Id of the cell's parent one level up, the cell at `coords >> 1`.
    /// Level-1 cells report 0: their parent is the implicit root.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn parent(&self, id: CellId) -> CellId {
        self.parents[u32_to_usize(id)]
    }

    /// Sum of point counts over all cells (must equal `η`; used by tests and
    /// debug assertions).
    pub fn total_points(&self) -> u64 {
        self.n.iter().copied().map(u64::from).sum()
    }

    /// Heap footprint in bytes: the level plus its arrays' capacities.
    pub fn memory_bytes(&self) -> usize {
        size_of::<Level>()
            + self.keys.capacity() * size_of::<u64>()
            + (self.n.capacity() + self.p.capacity()) * size_of::<u32>()
            + self.parents.capacity() * size_of::<CellId>()
    }

    /// Appends an empty cell at `coords` under `parent`. The build calls it
    /// once per cell.
    pub(crate) fn push_cell(&mut self, coords: impl IntoIterator<Item = u64>, parent: CellId) {
        let start = self.keys.len();
        self.keys.resize(start + self.words, 0);
        if let Some(key) = self.keys.get_mut(start..) {
            self.layout.pack(coords, key);
        }
        self.p.resize(self.p.len() + self.p_stride, 0);
        self.n.push(0);
        self.parents.push(parent);
    }

    /// Count of the last cell pushed.
    pub(crate) fn last_count(&self) -> Option<u32> {
        self.n.last().copied()
    }

    /// Adds `n` points into the last cell pushed, and into its `P[j]` where
    /// bit `j` of `upper` is clear: the points sit in the cell's lower half
    /// along `e_j`. A level without half-space counts ignores `upper`.
    #[expect(clippy::indexing_slicing, reason = "`i` is the last cell pushed")]
    pub(crate) fn add_to_last(&mut self, n: u32, upper: u64) {
        let Some(i) = self.n_cells().checked_sub(1) else {
            return;
        };
        self.n[i] += n;
        let s = self.p_stride;
        for (j, slot) in self.p[i * s..(i + 1) * s].iter_mut().enumerate() {
            *slot += n * u32::from((upper >> j) & 1 == 0);
        }
    }

    /// Renames every parent through `parent_rank`, the parent level's
    /// old-to-new ids (empty at level 1), then puts the cells in packed-key
    /// order, each field moving with its cell. Returns this level's
    /// old-to-new ids. The scratch is the sort's `(first word, id)` pairs
    /// and the returned ids, 20 bytes per cell.
    #[expect(clippy::indexing_slicing, reason = "ids and ranks are < cells")]
    pub(crate) fn sort_cells(&mut self, parent_rank: &[CellId]) -> Vec<CellId> {
        if !parent_rank.is_empty() {
            for parent in &mut self.parents {
                *parent = parent_rank[u32_to_usize(*parent)];
            }
        }
        let mut order: Vec<(u64, CellId)> = self
            .ids()
            .map(|id| (self.key(id).first().copied().unwrap_or(0), id))
            .collect();
        order.sort_unstable_by_key(|&(word, _)| word);
        // Cells tie on the first word only when their keys span several
        // words; the full keys order each tie.
        for ties in order.chunk_by_mut(|a, b| a.0 == b.0) {
            ties.sort_unstable_by(|a, b| self.key(a.1).cmp(self.key(b.1)));
        }
        let mut rank = vec![0; order.len()];
        for (new, &(_, old)) in (0..).zip(&order) {
            rank[u32_to_usize(old)] = new;
        }
        // Cell `new` takes the fields of cell `order[new]`, one cycle of the
        // permutation at a time; a placed entry points to itself.
        for start in 0..order.len() {
            let mut at = start;
            loop {
                let from = u32_to_usize(order[at].1);
                order[at].1 = bounded_to_u32(at);
                if from == start {
                    break;
                }
                self.swap_cells(at, from);
                at = from;
            }
        }
        rank
    }

    /// Ids `0..n_cells`.
    fn ids(&self) -> impl ExactSizeIterator<Item = CellId> {
        // The build counts at most `MAX_POINTS` points, so ids stay below 2^32.
        0..CellId::try_from(self.n_cells()).unwrap_or(CellId::MAX)
    }

    /// The packed key of cell `id`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "callers pass ids of stored cells")]
    fn key(&self, id: CellId) -> &[u64] {
        let i = u32_to_usize(id);
        &self.keys[i * self.words..(i + 1) * self.words]
    }

    /// Binary search of the sorted keys for `key`.
    fn search(&self, key: &[u64]) -> Option<CellId> {
        let w = self.words;
        let (mut lo, mut hi) = (0, self.n_cells());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.keys.get(mid * w..(mid + 1) * w)?.cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return CellId::try_from(mid).ok(),
            }
        }
        None
    }

    /// Swaps every field of cells `a` and `b`.
    fn swap_cells(&mut self, a: usize, b: usize) {
        swap_rows(&mut self.keys, self.words, a, b);
        swap_rows(&mut self.p, self.p_stride, a, b);
        self.n.swap(a, b);
        self.parents.swap(a, b);
    }
}

/// Swaps rows `a` and `b` of `rows`, `stride` entries each.
fn swap_rows<T>(rows: &mut [T], stride: usize, a: usize, b: usize) {
    let (lo, hi) = (a.min(b) * stride, a.max(b) * stride);
    if let Some((head, tail)) = rows.split_at_mut_checked(hi) {
        if let (Some(x), Some(y)) = (head.get_mut(lo..lo + stride), tail.get_mut(..stride)) {
            x.swap_with_slice(y);
        }
    }
}

/// Compares `other` with `key + step` in word `word`, word by word.
fn cmp_stepped(other: &[u64], key: &[u64], word: usize, step: u64) -> Ordering {
    other
        .iter()
        .zip(key)
        .enumerate()
        .map(|(k, (&o, &w))| o.cmp(&if k == word { w + step } else { w }))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingTree;
    use mrcc_common::float::exactly;
    use mrcc_common::Dataset;

    /// A level of the given cells, each `(coords, parent, n)`, pushed in the
    /// given order and then sorted as the build sorts them.
    fn sorted_level(h: u32, cells: &[(&[u64], CellId, u32)]) -> Level {
        let d = cells.first().map_or(1, |c| c.0.len());
        let mut l = Level::with_capacity(h, d, cells.len(), true);
        for &(coords, parent, n) in cells {
            l.push_cell(coords.iter().copied(), parent);
            l.add_to_last(n, 0);
        }
        l.sort_cells(&[]);
        l
    }

    /// A level of one-point cells at `coords`, under parent 0.
    fn level_with(h: u32, coords: &[&[u64]]) -> Level {
        let cells: Vec<_> = coords.iter().map(|&c| (c, 0, 1)).collect();
        sorted_level(h, &cells)
    }

    #[test]
    fn insert_and_find() {
        let l = level_with(2, &[&[0, 1], &[3, 2]]);
        assert_eq!(l.n_cells(), 2);
        assert!(l.find(&[0, 1]).is_some());
        assert!(l.find(&[1, 1]).is_none());
    }

    #[test]
    fn find_rejects_wrong_width_and_off_grid_coordinates() {
        // Level 2 packs two bits per axis: (4, 0) would alias (0, 1).
        let l = level_with(2, &[&[0, 1], &[3, 2]]);
        assert_eq!(l.find(&[0]), None, "too narrow");
        assert_eq!(l.find(&[0, 1, 0]), None, "too wide");
        assert_eq!(l.find(&[4, 0]), None, "2^h on axis 0");
        assert_eq!(l.find(&[3, 2 + 4]), None, "2^h + c on axis 1");
        assert_eq!(l.find(&[u64::MAX, 1]), None);
    }

    #[test]
    fn points_in_one_cell_share_it() {
        // At level 3, (0.20, 0.30) and (0.21, 0.31) both fall in cell (1, 2).
        let ds = Dataset::from_rows(&[[0.20, 0.30], [0.21, 0.31]]).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let l = tree.level(3);
        assert_eq!(l.n_cells(), 1);
        assert_eq!(l.find(&[1, 2]).map(|id| l.cell(id).n()), Some(2));
    }

    #[test]
    fn keys_round_trip_across_a_word_boundary() {
        // h = 3 packs 21 fields per word: d = 22 takes two words.
        let coords: Vec<u64> = (0..22).map(|j| j % 8).collect();
        let l = level_with(3, &[&coords]);
        assert_eq!(l.words, 2);
        assert_eq!(l.find(&coords), Some(0));
        assert_eq!(l.cell(0).coords().collect::<Vec<_>>(), coords);
    }

    #[test]
    fn counting_updates_half_spaces() {
        let mut l = Level::with_capacity(2, 2, 1, true);
        l.push_cell([2, 3], 0);
        // Bit j of `upper` clear → lower half along axis j.
        l.add_to_last(1, 0b10);
        l.add_to_last(1, 0b00);
        l.add_to_last(1, 0b01);
        l.sort_cells(&[]);
        let c = l.cell(l.find(&[2, 3]).unwrap());
        assert_eq!(c.n(), 3);
        assert_eq!(c.half_count(0), 2);
        assert_eq!(c.half_count(1), 2);
        assert_eq!(c.half_counts(), &[2, 2]);
    }

    #[test]
    fn neighbors_respect_borders() {
        // Level 2 → coordinates in [0, 4).
        let l = level_with(2, &[&[0, 0], &[1, 0], &[3, 0]]);
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
        // An axis outside 0..d has no neighbor.
        assert_eq!(l.neighbor(id0, 2, Direction::Upper), None);
    }

    #[test]
    fn a_field_at_the_border_does_not_carry_into_the_next_axis() {
        // At level 2, (3, 0) + e_0 unchecked is the key of (0, 1): the packed
        // field carries. Neither lookup nor the level pass may pair them.
        let l = level_with(2, &[&[3, 0], &[0, 1]]);
        let edge = l.find(&[3, 0]).unwrap();
        let next = l.find(&[0, 1]).unwrap();
        assert_eq!(l.neighbor(edge, 0, Direction::Upper), None);
        assert_eq!(l.neighbor(next, 0, Direction::Lower), None);
        assert_eq!(l.face_neighbor_sums(), vec![0, 0]);
        // The same at the last field of a full word: h = 3, d = 22, axis 20
        // sits at the top of word 0 and axis 21 at the bottom of word 1.
        let mut a = vec![0u64; 22];
        a[20] = 7;
        let mut b = vec![0u64; 22];
        b[21] = 1;
        let l = level_with(3, &[&a, &b]);
        assert_eq!(l.neighbor(l.find(&a).unwrap(), 20, Direction::Upper), None);
        assert_eq!(l.face_neighbor_sums(), vec![0, 0]);
    }

    #[test]
    fn face_neighbor_sums_add_both_directions() {
        // (1,1) has faces (0,1), (2,1), (1,0), (1,2); (2,2) is a corner.
        let coords: [[u64; 2]; 5] = [[1, 1], [2, 1], [1, 0], [2, 2], [0, 1]];
        let cells: Vec<(&[u64], CellId, u32)> = coords
            .iter()
            .zip([5, 2, 3, 7, 1])
            .map(|(c, points)| (&c[..], 0, points))
            .collect();
        let l = sorted_level(2, &cells);
        let want: Vec<u64> = l
            .iter()
            .map(|(id, _)| {
                (0..2)
                    .map(|j| {
                        l.neighbor_count(id, j, Direction::Lower)
                            + l.neighbor_count(id, j, Direction::Upper)
                    })
                    .sum()
            })
            .collect();
        let by_coords = coords.map(|c| want[l.find(&c).unwrap() as usize]);
        assert_eq!(by_coords, [2 + 3 + 1, 5 + 7, 5, 2, 5]);
        assert_eq!(l.face_neighbor_sums(), want);
        assert!(Level::with_capacity(2, 2, 0, true)
            .face_neighbor_sums()
            .is_empty());
    }

    #[test]
    fn neighbor_symmetry() {
        let l = level_with(2, &[&[1, 1], &[2, 1]]);
        let a = l.find(&[1, 1]).unwrap();
        let b = l.find(&[2, 1]).unwrap();
        assert_eq!(l.neighbor(a, 0, Direction::Upper), Some(b));
        assert_eq!(l.neighbor(b, 0, Direction::Lower), Some(a));
    }

    #[test]
    fn parent_is_recorded() {
        // Pushed out of key order: the sort moves each parent and count
        // with its cell.
        let l = sorted_level(2, &[(&[3], 9, 1), (&[0], 4, 2)]);
        let (a, b) = (l.find(&[0]).unwrap(), l.find(&[3]).unwrap());
        assert_eq!((a, b), (0, 1));
        assert_eq!((l.parent(a), l.parent(b)), (4, 9));
        assert_eq!((l.cell(a).n(), l.cell(b).n()), (2, 1));
    }

    #[test]
    fn sorting_renames_parents_and_reports_new_ids() {
        // Keys 6, 1, 4 at level 3 in one dimension: sorted order 1, 4, 6.
        let mut l = Level::with_capacity(3, 1, 3, true);
        for (c, parent) in [(6, 0), (1, 1), (4, 2)] {
            l.push_cell([c], parent);
            l.add_to_last(1, 0);
        }
        // The parent level moved its cells 0, 1, 2 to 2, 0, 1.
        let rank = l.sort_cells(&[2, 0, 1]);
        assert_eq!(rank, [2, 0, 1]);
        let coords: Vec<u64> = l.iter().map(|(_, c)| c.coord(0)).collect();
        assert_eq!(coords, [1, 4, 6]);
        assert_eq!([0, 1, 2].map(|id| l.parent(id)), [0, 1, 2]);
    }

    #[test]
    fn side_halves_per_level() {
        assert!(exactly(Level::with_capacity(1, 1, 0, true).side(), 0.5));
        assert!(exactly(Level::with_capacity(3, 1, 0, true).side(), 0.125));
        assert_eq!(Level::with_capacity(2, 1, 0, true).grid_extent(), 4);
    }

    #[test]
    fn total_points_sums_counts() {
        let l = level_with(2, &[&[0, 0], &[1, 0], &[3, 0]]);
        assert_eq!(l.total_points(), 3);
    }

    #[test]
    fn memory_estimate_grows_with_cells() {
        let small = level_with(2, &[&[0, 0]]);
        let big = level_with(2, &[&[0, 0], &[1, 0], &[2, 0], &[3, 0]]);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
