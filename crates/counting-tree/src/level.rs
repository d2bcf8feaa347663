//! One resolution level of the Counting-tree: a flat array per cell field
//! and an index over them (see the crate docs).

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

/// Slots of an index before its first growth.
const MIN_SLOTS: usize = 16;

/// The splitmix64 output function: a bijective 64-bit mixer.
const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Index hash of a packed key, word by word.
fn hash_key(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |acc, w| splitmix64(acc ^ w))
}

/// A fully materialized resolution level.
///
/// One array per cell field, indexed by [`CellId`]: the packed `keys` with
/// stride `W` (see `KeyLayout`), the counts `n`, the half-space counts `p`
/// with stride `d`, `parents` (0 at level 1, under the implicit root) and
/// `first`, each cell's smallest point index. `slots` is the index: a power
/// of two of them, at most half occupied, probed linearly from the key's
/// hash, 0 when empty and `(tag << 32) | (id + 1)` otherwise.
#[derive(Debug)]
pub struct Level {
    h: u32,
    d: usize,
    layout: KeyLayout,
    words: usize,
    keys: Vec<u64>,
    n: Vec<u32>,
    p: Vec<u32>,
    parents: Vec<CellId>,
    first: Vec<u32>,
    slots: Vec<u64>,
}

impl Level {
    /// An empty level with an index of 16 slots, for [`CountingTree::insert`].
    ///
    /// [`CountingTree::insert`]: crate::CountingTree::insert
    pub(crate) fn new(h: u32, d: usize) -> Self {
        let mut level = Level::with_capacity(h, d, 0);
        level.slots = vec![0; MIN_SLOTS];
        level
    }

    /// An empty level whose arrays hold exactly `cells` cells, and with no
    /// index until [`Level::fill_index`]: the sorted build's level.
    pub(crate) fn with_capacity(h: u32, d: usize, cells: usize) -> Self {
        let layout = KeyLayout::new(h);
        let words = layout.words(d);
        Level {
            h,
            d,
            layout,
            words,
            keys: Vec::with_capacity(cells * words),
            n: Vec::with_capacity(cells),
            p: Vec::with_capacity(cells * d),
            parents: Vec::with_capacity(cells),
            first: Vec::with_capacity(cells),
            slots: Vec::new(),
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
            p: &self.p[i * self.d..(i + 1) * self.d],
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
        let key = &*key;
        self.probe(hash_key(key.iter().copied()), |cand| cand == key)
            .ok()
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
        let key = self.key(id);
        let (word, shift) = self.layout.locate(axis);
        let c = self.layout.field(key, axis)?;
        // A packed field carries into the next axis, so the border is checked
        // here: past it no cell exists.
        let target = match dir {
            Direction::Lower if c > 0 => key.get(word)? - (1 << shift),
            Direction::Upper if c < self.layout.top() => key.get(word)? + (1 << shift),
            _ => return None,
        };
        let stepped = |k: usize, w: u64| if k == word { target } else { w };
        let hash = hash_key(key.iter().enumerate().map(|(k, &w)| stepped(k, w)));
        self.probe(hash, |cand| {
            cand.iter()
                .zip(key)
                .enumerate()
                .all(|(k, (&a, &b))| a == stepped(k, b))
        })
        .ok()
    }

    /// Point count of the face neighbor, 0 when absent (how the convolution
    /// treats empty space).
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "ids from the index are in range")]
    pub fn neighbor_count(&self, id: CellId, axis: usize, dir: Direction) -> u64 {
        self.neighbor(id, axis, dir)
            .map_or(0, |nid| u64::from(self.n[u32_to_usize(nid)]))
    }

    /// Per cell, indexed by [`CellId`], the point count summed over its `2d`
    /// face neighbors: the neighbor term of the face-only convolution, for
    /// the whole level at once and without an index probe.
    ///
    /// The cells are sorted by key once. Adding 1 to a coordinate below
    /// `2^h − 1` changes one field of one word and carries nowhere, so it
    /// keeps the key order: per axis `j`, the keys `key + e_j` of the cells
    /// off the upper border form a sorted sequence, and one two-pointer merge
    /// against the sorted keys finds every upper neighbor pair. Each pair adds
    /// each cell's count to the other's sum. `O(cells·(log cells + d·W))` over
    /// sequential memory; the buffers are allocated once per call.
    pub fn face_neighbor_sums(&self) -> Vec<u64> {
        let w = self.words;
        let mut order: Vec<(u64, CellId)> = self
            .ids()
            .map(|id| (self.key(id).first().copied().unwrap_or(0), id))
            .collect();
        // The first word decides almost every comparison; the full key
        // breaks ties when it spans several words.
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| self.key(a.1).cmp(self.key(b.1))));
        let mut keys = Vec::with_capacity(self.keys.len());
        for &(_, id) in &order {
            keys.extend_from_slice(self.key(id));
        }
        let counts: Vec<u64> = order.iter().map(|&(_, id)| self.cell(id).n()).collect();
        let mut sums = vec![0u64; order.len()];
        let top = self.layout.top();
        for axis in 0..self.d {
            let (word, shift) = self.layout.locate(axis);
            let mut b = 0;
            for (a, key) in keys.chunks_exact(w).enumerate() {
                if key.get(word).is_none_or(|&kw| (kw >> shift) & top == top) {
                    continue;
                }
                // Every key before `b` is below the previous target, so below
                // this one too.
                b = b.max(a + 1);
                #[expect(clippy::indexing_slicing, reason = "a, b < cells")]
                while let Some(other) = keys.get(b * w..(b + 1) * w) {
                    match cmp_stepped(other, key, word, 1 << shift) {
                        Ordering::Less => b += 1,
                        Ordering::Equal => {
                            sums[a] += counts[b];
                            sums[b] += counts[a];
                            break;
                        }
                        Ordering::Greater => break,
                    }
                }
            }
        }
        let mut by_id = vec![0u64; sums.len()];
        #[expect(clippy::indexing_slicing, reason = "`order` holds every id once")]
        for (&(_, id), sum) in order.iter().zip(sums) {
            by_id[u32_to_usize(id)] = sum;
        }
        by_id
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

    /// The smallest index of a point the cell holds: its position in the
    /// dataset for [`CountingTree::build`], its arrival number for
    /// [`CountingTree::insert`]. Distinct per cell of a level, and ascending
    /// in the order cells would be created by inserting the points one by one.
    ///
    /// [`CountingTree::build`]: crate::CountingTree::build
    /// [`CountingTree::insert`]: crate::CountingTree::insert
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "documented `# Panics` contract")]
    pub fn first_point(&self, id: CellId) -> u32 {
        self.first[u32_to_usize(id)]
    }

    /// Sum of point counts over all cells (must equal `η`; used by tests and
    /// debug assertions).
    pub fn total_points(&self) -> u64 {
        self.n.iter().copied().map(u64::from).sum()
    }

    /// Heap footprint in bytes: the level plus its arrays' capacities.
    pub fn memory_bytes(&self) -> usize {
        size_of::<Level>()
            + (self.keys.capacity() + self.slots.capacity()) * size_of::<u64>()
            + (self.n.capacity() + self.p.capacity() + self.first.capacity()) * size_of::<u32>()
            + self.parents.capacity() * size_of::<CellId>()
    }

    /// Counts point number `point` into the level: the cell at
    /// `fine >> shift` (the point's finest-grid coordinates one shift up),
    /// materialized under `parent` if absent. Returns the cell's id. `key`
    /// is scratch space of at least `W` words.
    pub(crate) fn add_point(
        &mut self,
        point: u32,
        fine: &[u64],
        shift: u32,
        parent: CellId,
        key: &mut [u64],
    ) -> CellId {
        let key = key.get_mut(..self.words).unwrap_or_default();
        self.layout.pack(fine.iter().map(|&f| f >> shift), key);
        let id = self.get_or_insert(key, parent, point);
        // The point is in the lower half of this cell along e_j iff its
        // coordinate one level finer is even.
        let upper = (0..)
            .zip(fine)
            .fold(0, |acc, (j, &f)| acc | (((f >> (shift - 1)) & 1) << j));
        self.add_to(id, 1, point, upper);
        id
    }

    /// Appends an empty cell at `coords` under `parent`, with no index
    /// entry. The sorted build calls it once per cell.
    pub(crate) fn push_cell(&mut self, coords: impl IntoIterator<Item = u64>, parent: CellId) {
        let start = self.keys.len();
        self.keys.resize(start + self.words, 0);
        if let Some(key) = self.keys.get_mut(start..) {
            self.layout.pack(coords, key);
        }
        self.p.resize(self.p.len() + self.d, 0);
        self.n.push(0);
        self.parents.push(parent);
        self.first.push(u32::MAX);
    }

    /// Count and first point of the last cell pushed.
    pub(crate) fn last_counts(&self) -> Option<(u32, u32)> {
        self.n.last().copied().zip(self.first.last().copied())
    }

    /// [`Level::add_to`] the last cell pushed.
    pub(crate) fn add_to_last(&mut self, n: u32, first: u32, upper: u64) {
        if let Some(last) = self.ids().last() {
            self.add_to(last, n, first, upper);
        }
    }

    /// Builds the index over every stored cell, in the fewest slots
    /// `get_or_insert` would have grown to: a power of two, at least 16,
    /// at most half occupied.
    pub(crate) fn fill_index(&mut self) {
        self.place_all(MIN_SLOTS.max((2 * self.n_cells()).next_power_of_two()));
    }

    /// Ids `0..n_cells`.
    fn ids(&self) -> impl ExactSizeIterator<Item = CellId> {
        // `get_or_insert` and `push_cell` hand out ids below 2^32 only.
        0..CellId::try_from(self.n_cells()).unwrap_or(CellId::MAX)
    }

    /// The packed key of cell `id`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "callers pass ids of stored cells")]
    fn key(&self, id: CellId) -> &[u64] {
        let i = u32_to_usize(id);
        &self.keys[i * self.words..(i + 1) * self.words]
    }

    /// Fetches the cell with packed key `key`, materializing it under
    /// `parent` with first point `point` if absent, and returns its id.
    #[expect(clippy::indexing_slicing, reason = "`probe` returns an in-range slot")]
    fn get_or_insert(&mut self, key: &[u64], parent: CellId, point: u32) -> CellId {
        if 2 * (self.n_cells() + 1) > self.slots.len() {
            self.place_all(2 * self.slots.len());
        }
        let hash = hash_key(key.iter().copied());
        let pos = match self.probe(hash, |cand| cand == key) {
            Ok(id) => return id,
            Err(pos) => pos,
        };
        // The index stores `id + 1` in 32 bits, so ids stop below 2^32 − 1.
        let id = bounded_to_u32(self.n_cells() + 1) - 1;
        self.slots[pos] = occupied(hash, id);
        self.keys.extend_from_slice(key);
        self.p.resize(self.p.len() + self.d, 0);
        self.n.push(0);
        self.parents.push(parent);
        self.first.push(point);
        id
    }

    /// Adds `n` points, the smallest numbered `first`, into cell `id`, and
    /// into its `P[j]` where bit `j` of `upper` is clear: the points sit in
    /// the cell's lower half along `e_j`.
    #[expect(clippy::indexing_slicing, reason = "callers pass ids of stored cells")]
    fn add_to(&mut self, id: CellId, n: u32, first: u32, upper: u64) {
        let i = u32_to_usize(id);
        self.n[i] += n;
        self.first[i] = self.first[i].min(first);
        for (j, slot) in self.p[i * self.d..(i + 1) * self.d].iter_mut().enumerate() {
            *slot += n * u32::from((upper >> j) & 1 == 0);
        }
    }

    /// Probes the index for `hash`: `Ok(id)` of the cell whose key `is_match`
    /// accepts, else `Err` with the empty slot ending the probe.
    #[inline]
    fn probe(&self, hash: u64, is_match: impl Fn(&[u64]) -> bool) -> Result<CellId, usize> {
        let mask = self.slots.len() - 1;
        #[expect(clippy::as_conversions, reason = "truncation: low bits pick the slot")]
        let mut pos = (hash as usize) & mask;
        loop {
            #[expect(
                clippy::indexing_slicing,
                reason = "positions are masked to the slot count"
            )]
            let slot = self.slots[pos];
            if slot == 0 {
                return Err(pos);
            }
            if slot >> 32 == hash >> 32 {
                #[expect(clippy::as_conversions, reason = "truncation: low half is id + 1")]
                let id = (slot as u32) - 1;
                if is_match(self.key(id)) {
                    return Ok(id);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Re-places every cell from its key into `slots` empty slots, a power
    /// of two above twice the cell count.
    fn place_all(&mut self, slots: usize) {
        self.slots = vec![0; slots];
        for id in self.ids() {
            let hash = hash_key(self.key(id).iter().copied());
            // Stored cells are distinct, so the probe always ends at a free slot.
            #[expect(clippy::indexing_slicing, reason = "`probe` returns an in-range slot")]
            if let Err(pos) = self.probe(hash, |_| false) {
                self.slots[pos] = occupied(hash, id);
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

/// The slot holding `id` under `hash`: the hash's high half as a tag,
/// `id + 1` below it.
fn occupied(hash: u64, id: CellId) -> u64 {
    (hash >> 32 << 32) | (u64::from(id) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::float::exactly;

    /// Materializes the cell at `coords` under `parent`.
    fn insert(l: &mut Level, coords: &[u64], parent: CellId) -> CellId {
        let mut key = vec![0; l.words];
        l.layout.pack(coords.iter().copied(), &mut key);
        let point = u32::try_from(l.n_cells()).unwrap();
        l.get_or_insert(&key, parent, point)
    }

    fn level_with(h: u32, coords: &[&[u64]]) -> Level {
        let mut l = Level::new(h, coords[0].len());
        for c in coords {
            let id = insert(&mut l, c, 0);
            l.add_to(id, 1, 0, 0);
        }
        l
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
    fn get_or_insert_is_idempotent() {
        let mut l = Level::new(3, 2);
        let a = insert(&mut l, &[1, 2], 0);
        let b = insert(&mut l, &[1, 2], 0);
        assert_eq!(a, b);
        assert_eq!(l.n_cells(), 1);
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
        let mut l = Level::new(2, 2);
        let id = insert(&mut l, &[2, 3], 0);
        // Bit j of `upper` clear → lower half along axis j.
        l.add_to(id, 1, 0, 0b10);
        l.add_to(id, 1, 0, 0b00);
        l.add_to(id, 1, 0, 0b01);
        let c = l.cell(id);
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
        assert_eq!(l.neighbor(0, 20, Direction::Upper), None);
        assert_eq!(l.face_neighbor_sums(), vec![0, 0]);
    }

    #[test]
    fn face_neighbor_sums_add_both_directions() {
        // (1,1) has faces (0,1), (2,1), (1,0), (1,2); (2,2) is a corner.
        let mut l = Level::new(2, 2);
        for (coords, points) in [
            ([1, 1], 5),
            ([2, 1], 2),
            ([1, 0], 3),
            ([2, 2], 7),
            ([0, 1], 1),
        ] {
            let id = insert(&mut l, &coords, 0);
            l.add_to(id, points, 0, 0);
        }
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
        assert_eq!(want, vec![2 + 3 + 1, 5 + 7, 5, 2, 5]);
        assert_eq!(l.face_neighbor_sums(), want);
        assert!(Level::new(2, 2).face_neighbor_sums().is_empty());
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
        let mut l = Level::new(2, 1);
        let a = insert(&mut l, &[0], 4);
        let b = insert(&mut l, &[3], 9);
        assert_eq!(insert(&mut l, &[0], 4), a);
        assert_eq!((l.parent(a), l.parent(b)), (4, 9));
    }

    #[test]
    fn side_halves_per_level() {
        assert!(exactly(Level::new(1, 1).side(), 0.5));
        assert!(exactly(Level::new(3, 1).side(), 0.125));
        assert_eq!(Level::new(2, 1).grid_extent(), 4);
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
