//! One resolution level of the Counting-tree: a flat array per cell field
//! and an index over them (see the crate docs).

use crate::cell::{Cell, CellId};
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

/// The splitmix64 output function: a bijective 64-bit mixer.
const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-axis key weights `K_j`: odd, so `c ↦ c·K_j` is a bijection mod 2^64.
const AXIS_KEYS: [u64; MAX_DIMS] = {
    let mut keys = [0u64; MAX_DIMS];
    let mut j = 0;
    while j < MAX_DIMS {
        keys[j] = splitmix64(j as u64) | 1; // xtask-allow: as-cast — j < MAX_DIMS
        j += 1;
    }
    keys
};

/// Additive key of a coordinate vector: `Σ_j c_j·K_j`, wrapping.
fn key_of(coords: &[u64]) -> u64 {
    coords
        .iter()
        .zip(AXIS_KEYS)
        .fold(0u64, |acc, (&c, k)| acc.wrapping_add(c.wrapping_mul(k)))
}

/// A fully materialized resolution level.
///
/// One array per cell field, indexed by [`CellId`] in first-insertion order
/// (`coords` and the half-space counts `p` with stride `d`; `parents` is 0 at
/// level 1, under the implicit root), plus `slots`, the index: a power of two
/// of them, at most half occupied, probed linearly from the mixed key, 0 when
/// empty and `(tag << 32) | (id + 1)` otherwise.
#[derive(Debug, Default)]
pub struct Level {
    h: u32,
    d: usize,
    coords: Vec<u64>,
    n: Vec<u64>,
    p: Vec<u64>,
    used: Vec<bool>,
    parents: Vec<CellId>,
    keys: Vec<u64>,
    slots: Vec<u64>,
}

impl Level {
    pub(crate) fn new(h: u32, d: usize) -> Self {
        Level {
            h,
            d,
            slots: vec![0; 16],
            ..Level::default()
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
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        let i = u32_to_usize(id);
        let stride = i * self.d..(i + 1) * self.d;
        Cell {
            coords: &self.coords[stride.clone()], // xtask-allow: indexing — documented `# Panics` contract
            p: &self.p[stride], // xtask-allow: indexing — documented `# Panics` contract
            n: self.n[i],       // xtask-allow: indexing — documented `# Panics` contract
            used: self.used[i], // xtask-allow: indexing — documented `# Panics` contract
        }
    }

    /// Iterate over `(id, cell)` pairs in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CellId, Cell<'_>)> + '_ {
        // `get_or_insert` hands out ids below 2^32 only.
        let ids = 0..CellId::try_from(self.n_cells()).unwrap_or(CellId::MAX);
        ids.map(|id| (id, self.cell(id)))
    }

    /// Look up the cell at the given absolute coordinates.
    #[inline]
    pub fn find(&self, coords: &[u64]) -> Option<CellId> {
        self.probe(key_of(coords), |cand| cand == coords).ok()
    }

    /// The face neighbor of `id` along `axis` in `dir`, if that grid position
    /// is materialized (the paper's `N I`/`N E`; a missing external neighbor
    /// means either the space border or an unrefined empty region).
    ///
    /// # Panics
    /// Panics on an out-of-range id or axis.
    pub fn neighbor(&self, id: CellId, axis: usize, dir: Direction) -> Option<CellId> {
        let i = u32_to_usize(id);
        let coords = &self.coords[i * self.d..(i + 1) * self.d]; // xtask-allow: indexing — documented `# Panics` contract
        let key = self.keys[i]; // xtask-allow: indexing — documented `# Panics` contract
        let c = coords[axis]; // xtask-allow: indexing — documented `# Panics` contract
        let weight = AXIS_KEYS[axis]; // xtask-allow: indexing — axis < d ≤ MAX_DIMS once `coords[axis]` passed
        let (nc, nkey) = match dir {
            Direction::Lower => (c.checked_sub(1)?, key.wrapping_sub(weight)),
            // Past the grid border no cell exists, so the probe misses.
            Direction::Upper => (c + 1, key.wrapping_add(weight)),
        };
        self.probe(nkey, |cand| {
            cand.iter()
                .zip(coords)
                .enumerate()
                .all(|(k, (&a, &b))| a == if k == axis { nc } else { b })
        })
        .ok()
    }

    /// Point count of the face neighbor, 0 when absent (how the convolution
    /// treats empty space).
    ///
    /// # Panics
    /// Panics on an out-of-range id or axis.
    #[inline]
    pub fn neighbor_count(&self, id: CellId, axis: usize, dir: Direction) -> u64 {
        self.neighbor(id, axis, dir)
            .map_or(0, |nid| self.n[u32_to_usize(nid)]) // xtask-allow: indexing — ids from the index are in range
    }

    /// Id of the cell's parent one level up, the cell at `coords >> 1`.
    /// Level-1 cells report 0: their parent is the implicit root.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    pub fn parent(&self, id: CellId) -> CellId {
        self.parents[u32_to_usize(id)] // xtask-allow: indexing — documented `# Panics` contract
    }

    /// Marks a cell's `usedCell` flag.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn set_used(&mut self, id: CellId, used: bool) {
        self.used[u32_to_usize(id)] = used; // xtask-allow: indexing — documented `# Panics` contract
    }

    /// Clears every `usedCell` flag.
    pub(crate) fn reset_used(&mut self) {
        self.used.fill(false);
    }

    /// Sum of point counts over all cells (must equal `η`; used by tests and
    /// debug assertions).
    pub fn total_points(&self) -> u64 {
        self.n.iter().sum()
    }

    /// Heap footprint in bytes: the level plus its arrays' capacities.
    pub fn memory_bytes(&self) -> usize {
        let words = [&self.coords, &self.n, &self.p, &self.keys, &self.slots];
        size_of::<Level>()
            + words.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<u64>()
            + self.used.capacity() * size_of::<bool>()
            + self.parents.capacity() * size_of::<CellId>()
    }

    /// Fetches the cell at `coords`, materializing it under `parent` if
    /// absent, and returns its id.
    pub(crate) fn get_or_insert(&mut self, coords: &[u64], parent: CellId) -> CellId {
        if 2 * (self.n_cells() + 1) > self.slots.len() {
            self.grow_index();
        }
        let key = key_of(coords);
        let pos = match self.probe(key, |cand| cand == coords) {
            Ok(id) => return id,
            Err(pos) => pos,
        };
        // The index stores `id + 1` in 32 bits, so ids stop below 2^32 − 1.
        let id = bounded_to_u32(self.n_cells() + 1) - 1;
        self.slots[pos] = occupied(key, id); // xtask-allow: indexing — `probe` returns an in-range slot
        self.coords.extend_from_slice(coords);
        self.p.resize(self.p.len() + self.d, 0);
        self.n.push(0);
        self.used.push(false);
        self.parents.push(parent);
        self.keys.push(key);
        id
    }

    /// Counts one point into cell `id`. The point lies in the lower half of
    /// the cell along axis `e_j` iff bit `bit` of `fine[j]` is clear.
    pub(crate) fn count_point(&mut self, id: CellId, fine: &[u64], bit: u32) {
        let i = u32_to_usize(id);
        self.n[i] += 1; // xtask-allow: indexing — ids come from `get_or_insert`
        let p = &mut self.p[i * self.d..(i + 1) * self.d]; // xtask-allow: indexing — ids come from `get_or_insert`
        for (slot, &f) in p.iter_mut().zip(fine) {
            *slot += ((f >> bit) & 1) ^ 1;
        }
    }

    /// Probes the index for `key`: `Ok(id)` of the cell whose coordinates
    /// `is_match` accepts, else `Err` with the empty slot ending the probe.
    #[inline]
    fn probe(&self, key: u64, is_match: impl Fn(&[u64]) -> bool) -> Result<CellId, usize> {
        let hash = splitmix64(key);
        let mask = self.slots.len() - 1;
        // xtask-allow: as-cast — truncation intended: the low bits pick the slot
        let mut pos = (hash as usize) & mask;
        loop {
            let slot = self.slots[pos]; // xtask-allow: indexing — positions are masked to the slot count
            if slot == 0 {
                return Err(pos);
            }
            if slot >> 32 == hash >> 32 {
                // xtask-allow: as-cast — truncation intended: the low half is `id + 1`
                let id = (slot as u32) - 1;
                let i = u32_to_usize(id);
                let cand = &self.coords[i * self.d..(i + 1) * self.d]; // xtask-allow: indexing — occupied slots hold ids of stored cells
                if is_match(cand) {
                    return Ok(id);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Doubles the slot count and re-places every cell from its stored key.
    fn grow_index(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        let keys = std::mem::take(&mut self.keys);
        for (id, &key) in (0..).zip(&keys) {
            // Stored cells are distinct, so the probe always ends at a free slot.
            if let Err(pos) = self.probe(key, |_| false) {
                self.slots[pos] = occupied(key, id); // xtask-allow: indexing — `probe` returns an in-range slot
            }
        }
        self.keys = keys;
    }
}

/// The slot holding `id` under `key`: the mixed key's high half as a tag,
/// `id + 1` below it.
fn occupied(key: u64, id: CellId) -> u64 {
    (splitmix64(key) >> 32 << 32) | (u64::from(id) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_with(coords: &[&[u64]]) -> Level {
        let mut l = Level::new(2, 2);
        for c in coords {
            let id = l.get_or_insert(c, 0);
            l.count_point(id, &[0, 0], 0);
        }
        l
    }

    #[test]
    fn insert_and_find() {
        let l = level_with(&[&[0, 1], &[3, 2]]);
        assert_eq!(l.n_cells(), 2);
        assert!(l.find(&[0, 1]).is_some());
        assert!(l.find(&[1, 1]).is_none());
        assert!(l.find(&[0]).is_none(), "a wrong-width key never matches");
    }

    #[test]
    fn get_or_insert_is_idempotent() {
        let mut l = Level::new(3, 2);
        let a = l.get_or_insert(&[1, 2], 0);
        let b = l.get_or_insert(&[1, 2], 0);
        assert_eq!(a, b);
        assert_eq!(l.n_cells(), 1);
    }

    #[test]
    fn counting_updates_half_spaces() {
        let mut l = Level::new(2, 2);
        let id = l.get_or_insert(&[2, 3], 0);
        // Bit 0 clear → lower half along that axis.
        l.count_point(id, &[0, 1], 0);
        l.count_point(id, &[0, 0], 0);
        l.count_point(id, &[1, 0], 0);
        let c = l.cell(id);
        assert_eq!(c.n(), 3);
        assert_eq!(c.half_count(0), 2);
        assert_eq!(c.half_count(1), 2);
        assert_eq!(c.half_counts(), &[2, 2]);
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
    fn parent_is_recorded() {
        let mut l = Level::new(2, 1);
        let a = l.get_or_insert(&[0], 4);
        let b = l.get_or_insert(&[3], 9);
        assert_eq!(l.get_or_insert(&[0], 4), a);
        assert_eq!((l.parent(a), l.parent(b)), (4, 9));
    }

    #[test]
    fn used_flag_round_trips() {
        let mut l = level_with(&[&[0, 0], &[1, 0]]);
        assert!(!l.cell(1).used());
        l.set_used(1, true);
        assert!(l.cell(1).used() && !l.cell(0).used());
        l.reset_used();
        assert!(l.iter().all(|(_, c)| !c.used()));
    }

    #[test]
    fn side_halves_per_level() {
        assert_eq!(Level::new(1, 1).side(), 0.5);
        assert_eq!(Level::new(3, 1).side(), 0.125);
        assert_eq!(Level::new(2, 1).grid_extent(), 4);
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

    #[test]
    fn axis_keys_are_odd_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in AXIS_KEYS {
            assert_eq!(k & 1, 1);
            assert!(seen.insert(k));
        }
    }
}
