//! A view of one Counting-tree cell, and the packed key that locates it.
//!
//! The paper's cell structure is `<loc, n, P[d], usedCell, ptr>`. Here `loc`
//! and `ptr` are subsumed by the cell's packed grid position, its *key* (see
//! the crate docs): its parent is the key of `coords >> 1` one level up,
//! and its children a range of keys one level down. `n` is stored
//! verbatim, in one flat `u32` array per level. `P[d]` is not stored: it is
//! the count of the children with an even coordinate, which
//! [`crate::Level::half_counts`] sums on demand. `usedCell` is search
//! state, so the β-cluster search's cursors hold it, not the tree. A
//! [`Cell`] is a `Copy` view of one cell's entries.

use mrcc_common::num::{grid_to_f64, u32_to_usize};

/// Index of a cell within its level, in packed-key order: keys compare
/// word by word from word 0, each word as an integer. The id is thus a
/// function of the cell's grid position alone, whatever the order of the
/// dataset's rows, and the β-cluster search breaks ties between equal
/// convolved values by the smaller id.
pub type CellId = u32;

/// How one level packs grid coordinates into key words: `h` bits per
/// coordinate, `⌊64/h⌋` coordinates per `u64` word, none crossing a word.
///
/// Coordinate `j` lives in word `j / per_word` at bit `h·(j mod per_word)`.
/// The packing is exact, so the words *are* the cell's position: two cells
/// share a key iff they share every coordinate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyLayout {
    bits: usize,
    per_word: usize,
}

impl KeyLayout {
    /// The layout of level `h`; the tree's levels have `1 ≤ h ≤ 63`.
    pub(crate) fn new(h: u32) -> Self {
        let bits = u32_to_usize(h).clamp(1, 63);
        KeyLayout {
            bits,
            per_word: 64 / bits,
        }
    }

    /// Key words of a `d`-dimensional cell, `⌈d / ⌊64/h⌋⌉`.
    pub(crate) fn words(self, d: usize) -> usize {
        d.div_ceil(self.per_word)
    }

    /// The largest coordinate, `2^h − 1`, which is also the field mask.
    pub(crate) fn top(self) -> u64 {
        u64::MAX >> (64 - self.bits)
    }

    /// Word index and bit shift of coordinate `j`.
    pub(crate) fn locate(self, j: usize) -> (usize, usize) {
        (j / self.per_word, self.bits * (j % self.per_word))
    }

    /// The axis whose field is the `i`-th most significant in the key
    /// order, `i = 0` first, of a `d`-dimensional key; `None` for
    /// `i ≥ d`. Word 0 is the most significant word, and a word's highest
    /// field its most significant.
    pub(crate) fn by_significance(self, d: usize, i: usize) -> Option<usize> {
        let (word, from_top) = (i / self.per_word, i % self.per_word);
        let end = d.min((word + 1) * self.per_word);
        (word * self.per_word + from_top < end).then(|| end - 1 - from_top)
    }

    /// Coordinate `j` of `key`, or `None` past the key's words.
    pub(crate) fn field(self, key: &[u64], j: usize) -> Option<u64> {
        let (word, shift) = self.locate(j);
        key.get(word).map(|&w| (w >> shift) & self.top())
    }

    /// Packs in-grid coordinates into `key` (zeroed first), field by field.
    pub(crate) fn pack(self, coords: impl IntoIterator<Item = u64>, key: &mut [u64]) {
        key.fill(0);
        let mut words = key.iter_mut();
        let mut word = words.next();
        let mut shift = 0;
        for c in coords {
            if shift + self.bits > 64 {
                word = words.next();
                shift = 0;
            }
            if let Some(w) = word.as_deref_mut() {
                *w |= c << shift;
            }
            shift += self.bits;
        }
    }
}

/// A `d`-dimensional hyper-cube cell of side `1/2^h` at tree level `h`: its
/// grid position and count `n`.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    pub(crate) key: &'a [u64],
    pub(crate) layout: KeyLayout,
    pub(crate) d: usize,
    pub(crate) n: u32,
}

impl<'a> Cell<'a> {
    /// Absolute grid coordinate of the cell on axis `e_j`, in `[0, 2^h)`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    #[inline]
    pub fn coord(&self, j: usize) -> u64 {
        // The key's last word may have room past axis `d − 1`.
        assert!(
            j < self.d,
            "index out of bounds: axis {j} of a {}-dimensional cell",
            self.d
        );
        self.layout.field(self.key, j).unwrap_or(0)
    }

    /// All grid coordinates of the cell, one per axis, decoded from its key
    /// word by word.
    pub fn coords(&self) -> impl Iterator<Item = u64> + 'a {
        let layout = self.layout;
        self.key
            .iter()
            .flat_map(move |&w| {
                (0..layout.per_word).map(move |k| (w >> (k * layout.bits)) & layout.top())
            })
            .take(self.d)
    }

    /// Point count `n`.
    #[inline]
    pub fn n(&self) -> u64 {
        u64::from(self.n)
    }

    /// Relative position bit (`loc`) of axis `e_j`: `true` when the cell sits
    /// in the **upper** half of its parent along `e_j`.
    #[inline]
    pub fn loc_bit(&self, j: usize) -> bool {
        self.coord(j) & 1 == 1
    }

    /// Lower bound of the cell on axis `e_j`, given the level's cell side.
    #[inline]
    pub fn lower_bound(&self, j: usize, side: f64) -> f64 {
        grid_to_f64(self.coord(j)) * side
    }

    /// Upper bound of the cell on axis `e_j`, given the level's cell side.
    #[inline]
    pub fn upper_bound(&self, j: usize, side: f64) -> f64 {
        grid_to_f64(self.coord(j) + 1) * side
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `check` on a view of the level-`h` cell at `coords`, holding
    /// three points.
    fn with_view(h: u32, coords: &[u64], check: impl FnOnce(Cell<'_>)) {
        let layout = KeyLayout::new(h);
        let mut key = vec![0; layout.words(coords.len())];
        layout.pack(coords.iter().copied(), &mut key);
        check(Cell {
            key: &key,
            layout,
            d: coords.len(),
            n: 3,
        });
    }

    #[test]
    fn layout_packs_whole_fields_per_word() {
        // h = 3: 21 fields per word, the top bit of each word unused.
        let l3 = KeyLayout::new(3);
        assert_eq!(l3.top(), 7);
        assert_eq!(
            [21, 22, 43, 64].map(|d| l3.words(d)),
            [1, 2, 3, 4],
            "word boundaries"
        );
        assert_eq!((l3.locate(20), l3.locate(21)), ((0, 60), (1, 0)));
        assert_eq!(KeyLayout::new(1).words(64), 1);
        assert_eq!(KeyLayout::new(63).words(64), 64);
        assert_eq!(KeyLayout::new(63).top(), (1 << 63) - 1);
    }

    #[test]
    fn fields_by_significance_follow_the_key_order() {
        // h = 3, d = 23: word 0 holds axes 0–20, axis 20 on top; word 1
        // holds axes 21 and 22.
        let l3 = KeyLayout::new(3);
        let order: Vec<usize> = (0..24).map_while(|i| l3.by_significance(23, i)).collect();
        let want: Vec<usize> = (0..21).rev().chain([22, 21]).collect();
        assert_eq!(order, want);
        assert_eq!(KeyLayout::new(2).by_significance(3, 0), Some(2));
        assert_eq!(KeyLayout::new(2).by_significance(3, 3), None);
    }

    #[test]
    fn coordinates_round_trip_through_the_key() {
        for (h, d) in [(1, 64usize), (2, 43), (3, 22), (3, 64), (7, 10), (63, 3)] {
            let top = KeyLayout::new(h).top();
            let coords: Vec<u64> = (0..d as u64)
                .map(|j| if j % 3 == 0 { top } else { j % 2 })
                .collect();
            with_view(h, &coords, |c| {
                assert_eq!(c.coords().collect::<Vec<_>>(), coords, "h={h} d={d}");
                assert!((0..d).all(|j| c.coord(j) == coords[j]), "h={h} d={d}");
            });
        }
    }

    #[test]
    fn loc_bits() {
        with_view(3, &[5, 2, 7], |c| {
            assert!(c.loc_bit(0)); // 5 is odd → upper half of parent
            assert!(!c.loc_bit(1)); // 2 is even → lower half
            assert!(c.loc_bit(2));
        });
    }

    #[test]
    fn bounds_scale_with_side() {
        with_view(2, &[3], |c| {
            let side = 0.25; // level 2
            assert!((c.lower_bound(0, side) - 0.75).abs() < 1e-12);
            assert!((c.upper_bound(0, side) - 1.0).abs() < 1e-12);
        });
    }

    #[test]
    fn view_reads_its_fields() {
        with_view(2, &[1, 2], |c| {
            assert_eq!(c.n(), 3);
            assert_eq!(c.coords().collect::<Vec<_>>(), [1, 2]);
            assert_eq!(c.coord(1), 2);
        });
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn coord_panics_past_the_last_axis() {
        // Axis 2 would still decode from the key's one word.
        with_view(2, &[1, 2], |c| {
            c.coord(2);
        });
    }
}
