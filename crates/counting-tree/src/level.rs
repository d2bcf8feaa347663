//! One resolution level of the Counting-tree: a flat array per cell field,
//! in packed-key order (see the crate docs).

use std::cmp::Ordering;
use std::ops::Range;

use crate::cell::{Cell, CellId, KeyLayout};
use crate::keys::{Run, SortedKeys};
use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::num::{powi_exp, u32_to_usize};

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
/// stride `W` (see `KeyLayout`) and the counts `n`, `8·W + 4` bytes per
/// cell. The cells are in packed-key order, word 0 most significant, so a
/// lookup is a binary search over `keys`. No level stores parents or the
/// half-space counts `P`: a cell's parent is the cell at `coords >> 1` one
/// level up, and [`Level::half_counts`] sums a parent's `P` over its
/// children, which share one range of the child level's keys.
#[derive(Debug)]
pub struct Level {
    h: u32,
    d: usize,
    layout: KeyLayout,
    words: usize,
    keys: Vec<u64>,
    n: Vec<u32>,
}

impl Level {
    /// Level `h` of `d`-dimensional cells, one per run of `sorted`, the
    /// level-`h` keys of what the cells hold: each cell takes its run's key
    /// and `count(run)` points. The runs come in packed-key order, so the
    /// cells need no other sort.
    pub(crate) fn from_runs(
        h: u32,
        d: usize,
        sorted: &SortedKeys,
        mut count: impl FnMut(Run<'_>) -> u32,
    ) -> Self {
        let layout = KeyLayout::new(h);
        let words = layout.words(d);
        let cells = sorted.runs().count();
        let mut keys = Vec::with_capacity(cells * words);
        let mut n = Vec::with_capacity(cells);
        for run in sorted.runs() {
            keys.extend(run.key());
            n.push(count(run));
        }
        Level {
            h,
            d,
            layout,
            words,
            keys,
            n,
        }
    }

    /// The summed count of cells `ids`: their parent's count.
    #[expect(clippy::indexing_slicing, reason = "ids are cells of this level")]
    pub(crate) fn count_of(&self, ids: impl Iterator<Item = CellId>) -> u32 {
        ids.map(|id| self.n[u32_to_usize(id)]).sum()
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
        Cell {
            key: self.key(id),
            layout: self.layout,
            d: self.d,
            n: self.n[u32_to_usize(id)],
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

    /// The half-space counts `P` of the level-`(h − 1)` cell at `parent`
    /// (`d` zeros for the root, level 1's parent): per axis `j`, the points
    /// of its children, this level's cells at `coords >> 1 == parent`,
    /// whose coordinate `j` is even. All zero when no cell of this level
    /// lies under `parent`, or when `parent` does not have one coordinate
    /// per axis inside the level-`(h − 1)` grid.
    ///
    /// The children's keys all lie between the keys of `2·parent` and
    /// `2·parent + 1`, every field's low bit clear and set, but that range
    /// may also hold other parents' children: in 2-d, level 2's `(2, 0)`
    /// and `(3, 0)`, under `(1, 0)`, lie between `(0, 0)` and `(1, 1)`.
    /// Two binary searches find the range. While a range holds more than
    /// 32 keys, it is split in two on the low bit of its most significant
    /// free field, each half found by two binary searches inside it, and
    /// empty halves are dropped: a walk down a binary trie of the
    /// children. A range of at most 32 keys is scanned once, keeping the
    /// keys that equal `2·parent` once the low bits are masked off. No
    /// allocation but the returned counts.
    pub fn half_counts(&self, parent: &[u64]) -> Vec<u64> {
        self.half_counts_scanning(parent, SCAN_CELLS)
    }

    /// [`Level::half_counts`], scanning every key range of at most
    /// `scan_cells` cells instead of splitting it.
    fn half_counts_scanning(&self, parent: &[u64], scan_cells: usize) -> Vec<u64> {
        let mut counts = vec![0u64; self.d];
        if parent.len() != self.d || parent.iter().any(|&c| c > self.layout.top() >> 1) {
            return counts;
        }
        let w = self.words;
        let (mut lower, mut low_bits, mut upper) = ([0u64; MAX_DIMS], [0; MAX_DIMS], [0; MAX_DIMS]);
        let (Some(lower), Some(low_bits), Some(upper)) = (
            lower.get_mut(..w),
            low_bits.get_mut(..w),
            upper.get_mut(..w),
        ) else {
            return counts;
        };
        self.layout.pack(parent.iter().map(|&c| c << 1), lower);
        self.layout.pack(std::iter::repeat_n(1, self.d), low_bits);
        let mut walk = ChildWalk {
            level: self,
            low_bits,
            upper,
            scan_cells,
            counts: &mut counts,
        };
        walk.add(0..self.n_cells(), 0, lower);
        counts
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
            + self.n.capacity() * size_of::<u32>()
    }

    /// Ids `0..n_cells`.
    pub(crate) fn ids(&self) -> Range<CellId> {
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
        let i = self.partition(0..self.n_cells(), |k| k < key);
        let w = self.words;
        (self.keys.get(i * w..(i + 1) * w)? == key)
            .then(|| CellId::try_from(i).ok())
            .flatten()
    }

    /// The first cell of `cells` whose key fails `before`, a predicate
    /// that holds on a prefix of them (`cells.end` if none fails): a binary
    /// search.
    fn partition(&self, cells: Range<usize>, before: impl Fn(&[u64]) -> bool) -> usize {
        let w = self.words;
        let (mut lo, mut hi) = (cells.start, cells.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.keys.get(mid * w..(mid + 1) * w).is_some_and(&before) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Key ranges of at most this many cells `Level::half_counts` scans
/// instead of splitting them.
const SCAN_CELLS: usize = 32;

/// The walk of [`Level::half_counts`] through one parent's key range.
struct ChildWalk<'a> {
    level: &'a Level,
    /// The low bit of every field.
    low_bits: &'a [u64],
    /// Scratch: the last key of the range being split.
    upper: &'a mut [u64],
    scan_cells: usize,
    /// The half-space counts summed so far.
    counts: &'a mut [u64],
}

impl ChildWalk<'_> {
    /// Adds the children whose keys equal `lower` but for the low bits of
    /// the fields from the `free`-th most significant on, which are clear
    /// in `lower`. They all lie in `window`, cells in key order.
    fn add(&mut self, window: Range<usize>, free: usize, lower: &mut [u64]) {
        let level = self.level;
        let field = level
            .layout
            .by_significance(level.d, free)
            .map(|j| level.layout.locate(j));
        // The range's last key: `lower` with every free low bit set.
        for (k, ((u, &l), &b)) in self
            .upper
            .iter_mut()
            .zip(&*lower)
            .zip(self.low_bits)
            .enumerate()
        {
            *u = l | match field {
                Some((word, shift)) if k == word => b & (u64::MAX >> (63 - shift)),
                Some((word, _)) if k > word => b,
                _ => 0,
            };
        }
        let upper = &*self.upper;
        let range = level.partition(window.clone(), |key| key < &*lower)
            ..level.partition(window, |key| key <= upper);
        match field {
            Some((word, shift)) if range.len() > self.scan_cells => {
                self.add(range.clone(), free + 1, lower);
                if let Some(w) = lower.get_mut(word) {
                    *w |= 1 << shift;
                    self.add(range, free + 1, lower);
                }
                if let Some(w) = lower.get_mut(word) {
                    *w &= !(1 << shift);
                }
            }
            _ => self.scan(range, lower),
        }
    }

    /// Adds every child among `cells`: a key that equals `lower` once the
    /// low bits are masked off adds its count to every axis on which its
    /// coordinate is even.
    fn scan(&mut self, cells: Range<usize>, lower: &[u64]) {
        let level = self.level;
        let w = level.words;
        let keys = level
            .keys
            .get(cells.start * w..cells.end * w)
            .unwrap_or_default();
        let n = level.n.get(cells).unwrap_or_default();
        for (key, &n) in keys.chunks_exact(w).zip(n) {
            let child = key
                .iter()
                .zip(lower)
                .zip(self.low_bits)
                .all(|((&k, &l), &b)| k & !b == l & !b);
            if !child {
                continue;
            }
            for (j, count) in self.counts.iter_mut().enumerate() {
                let (word, shift) = level.layout.locate(j);
                if key.get(word).is_some_and(|&k| (k >> shift) & 1 == 0) {
                    *count += u64::from(n);
                }
            }
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

    /// A level of the given cells, each `(coords, n)`, listed in any
    /// order and grouped by the build's sort.
    fn level_of(h: u32, cells: &[(&[u64], u32)]) -> Level {
        let d = cells.first().map_or(1, |c| c.0.len());
        let layout = KeyLayout::new(h);
        let sorted = SortedKeys::new(cells.iter(), layout.words(d), |cell, key| {
            layout.pack(cell.0.iter().copied(), key);
            Ok(())
        })
        .unwrap();
        Level::from_runs(h, d, &sorted, |run| {
            run.items().map(|i| cells[i as usize].1).sum()
        })
    }

    /// A level of one-point cells at `coords`.
    fn level_with(h: u32, coords: &[&[u64]]) -> Level {
        let cells: Vec<_> = coords.iter().map(|&c| (c, 1)).collect();
        level_of(h, &cells)
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
        let cells: Vec<(&[u64], u32)> = coords
            .iter()
            .zip([5, 2, 3, 7, 1])
            .map(|(c, points)| (&c[..], points))
            .collect();
        let l = level_of(2, &cells);
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
        assert!(level_of(2, &[]).face_neighbor_sums().is_empty());
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
    fn cells_come_in_packed_key_order() {
        // Listed out of key order, the cells come out sorted, each count
        // with its cell; 1-d keys 6, 1, 4 at level 3 sort as 1, 4, 6.
        let l = level_of(3, &[(&[6], 3), (&[1], 1), (&[4], 2)]);
        let coords: Vec<u64> = l.iter().map(|(_, c)| c.coord(0)).collect();
        assert_eq!(coords, [1, 4, 6]);
        assert_eq!([0, 1, 2].map(|id| l.cell(id).n()), [1, 2, 3]);
    }

    #[test]
    fn parent_is_found_one_level_up() {
        // Rows out of key order: level-2 cells (3) and (0), with one and two
        // points, sit under level-1 cells (1) and (0), ids 1 and 0.
        let ds = Dataset::from_rows(&[[0.9], [0.1], [0.2]]).unwrap();
        let tree = CountingTree::build(&ds, 3).unwrap();
        let l = tree.level(2);
        let (a, b) = (l.find(&[0]).unwrap(), l.find(&[3]).unwrap());
        assert_eq!((a, b), (0, 1));
        assert_eq!((l.cell(a).n(), l.cell(b).n()), (2, 1));
        let l1 = tree.level(1);
        let parent = |id| l1.find(&[l.cell(id).coord(0) >> 1]);
        assert_eq!((parent(a), parent(b)), (Some(0), Some(1)));
        assert_eq!([0, 1].map(|id| l1.cell(id).n()), [2, 1]);
        // Level 1's parent is the root: one point of three in its lower half.
        assert_eq!(l1.half_counts(&[0]), [2]);
        assert_eq!(l.half_counts(&[0]), [2], "both points of (0) are in (0)");
        assert_eq!(l.half_counts(&[1]), [0], "(3) is the upper half of (1)");
    }

    #[test]
    fn half_counts_skip_the_other_parents_in_the_key_range() {
        // Level 2 in 2-d packs (x, y) as x + 4·y. Parent (0, 0)'s children
        // span keys 0 ..= 5, and (2, 0) and (3, 0), keys 2 and 3, are in
        // that range but under parent (1, 0).
        let l = level_of(
            2,
            &[
                (&[0, 0], 1),
                (&[1, 0], 2),
                (&[2, 0], 4),
                (&[3, 0], 8),
                (&[0, 1], 16),
                (&[1, 1], 32),
                (&[2, 1], 64),
            ],
        );
        assert_eq!(l.half_counts(&[0, 0]), [1 + 16, 1 + 2]);
        assert_eq!(l.half_counts(&[1, 0]), [4 + 64, 4 + 8]);
        // A parent without children, or not on the level-1 grid, or of the
        // wrong width, has no points in either half.
        assert_eq!(l.half_counts(&[0, 1]), [0, 0]);
        assert_eq!(l.half_counts(&[2, 0]), [0, 0]);
        assert_eq!(l.half_counts(&[0]), [0, 0]);
        assert_eq!(l.half_counts(&[0, 0, 0]), [0, 0]);
    }

    #[test]
    fn half_counts_scan_a_key_range_across_a_word_boundary() {
        // h = 3, d = 22: axes 0–20 fill word 0, axis 21 is word 1. Parent
        // (1, 0, …, 0)'s children span word-0 values from key(2, 0, …) to
        // key(3, 1, …, 1). Every child here has axis 21 at 0 or 1; (2, 2,
        // 0, …) and (3, 0, …, 0, 2) fall inside that range too, but under
        // parents (1, 1, 0, …) and (1, 0, …, 0, 1).
        let at = |fields: &[(usize, u64)]| {
            let mut coords = vec![0u64; 22];
            for &(j, c) in fields {
                coords[j] = c;
            }
            coords
        };
        let children = [
            (at(&[(0, 2)]), 1),
            (at(&[(0, 3), (5, 1)]), 2),
            (at(&[(0, 2), (20, 1), (21, 1)]), 4),
            (at(&[(0, 3), (21, 1)]), 8),
        ];
        let strangers = [(at(&[(0, 2), (1, 2)]), 16), (at(&[(0, 3), (21, 2)]), 32)];
        let cells: Vec<(&[u64], u32)> = children
            .iter()
            .chain(&strangers)
            .map(|(c, n)| (&c[..], *n))
            .collect();
        let l = level_of(3, &cells);
        assert_eq!(l.words, 2);
        let mut want = vec![1 + 2 + 4 + 8; 22];
        want[0] = 1 + 4;
        want[5] = 1 + 4 + 8;
        want[20] = 1 + 2 + 8;
        want[21] = 1 + 2;
        assert_eq!(l.half_counts(&at(&[(0, 1)])), want);
        // The strangers' own parents see only them.
        assert_eq!(l.half_counts(&at(&[(0, 1), (1, 1)])), [16; 22]);
        let mut upper_21 = vec![32; 22];
        upper_21[0] = 0;
        assert_eq!(l.half_counts(&at(&[(0, 1), (21, 1)])), upper_21);
    }

    #[test]
    fn splitting_the_key_range_finds_what_a_scan_finds() {
        // Clustered children under a few parents, among cells spread over
        // the grid, so key ranges hold hundreds of keys of other parents;
        // one- to three-word keys.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for (h, d) in [(2u32, 2usize), (2, 7), (3, 5), (3, 22), (3, 43), (5, 4)] {
            let extent = 1u64 << h;
            let parents: Vec<Vec<u64>> = (0..6)
                .map(|_| (0..d).map(|_| next(extent / 2)).collect())
                .collect();
            let mut coords: Vec<Vec<u64>> = (0..2_000)
                .map(|i| match parents.get(i % 8) {
                    Some(p) => p.iter().map(|&c| 2 * c + next(2)).collect(),
                    None => (0..d).map(|_| next(extent)).collect(),
                })
                .collect();
            coords.sort();
            coords.dedup();
            let cells: Vec<(&[u64], u32)> = coords
                .iter()
                .zip(1..)
                .map(|(c, n)| (&c[..], n % 5 + 1))
                .collect();
            let l = level_of(h, &cells);
            let spread: Vec<Vec<u64>> = (0..6)
                .map(|_| (0..d).map(|_| next(extent / 2)).collect())
                .collect();
            for parent in parents.iter().chain(&spread) {
                let want: Vec<u64> = (0..d)
                    .map(|j| {
                        l.iter()
                            .filter(|(_, c)| c.coords().zip(parent).all(|(c, &p)| c >> 1 == p))
                            .filter(|(_, c)| c.coord(j) % 2 == 0)
                            .map(|(_, c)| c.n())
                            .sum()
                    })
                    .collect();
                let context = format!("h {h} d {d} parent {parent:?}");
                assert_eq!(l.half_counts(parent), want, "{context}");
                assert_eq!(l.half_counts_scanning(parent, 0), want, "{context}");
                assert_eq!(
                    l.half_counts_scanning(parent, usize::MAX),
                    want,
                    "{context}"
                );
            }
        }
    }

    #[test]
    fn side_halves_per_level() {
        assert!(exactly(level_of(1, &[]).side(), 0.5));
        assert!(exactly(level_of(3, &[]).side(), 0.125));
        assert_eq!(level_of(2, &[]).grid_extent(), 4);
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
