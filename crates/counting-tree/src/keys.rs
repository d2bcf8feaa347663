//! The sorted build's keys: one level-major key per point, sorted once.
//!
//! A key takes `W = ⌈d·(H−1)/64⌉` words, read most significant bit first,
//! in bit-planes of `d` bits: plane `h − 1` holds the level-`h` bit of
//! every axis, axis `j` at bit `j` of the plane, for the levels
//! `h = 1 … H−1`. Comparing keys word by word thus orders the points by
//! their level-1 cell, then their level-2 cell, and so on, and the cells of
//! level `h` are the runs of equal `h·d`-bit prefixes. No plane holds the
//! deepest level's half-space bits: that level keeps no half-space counts,
//! because no search reads them (see [`crate::Level`]).

use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::num::{powi_exp, trunc_to_u64, u32_to_usize};
use mrcc_common::{Dataset, Error, Result};

use crate::tree::MAX_RESOLUTIONS;

/// `2^planes`, the scale of the finest grid: the deepest level's, with
/// `planes = H − 1`.
fn fine_scale(planes: usize) -> f64 {
    (2.0f64).powi(powi_exp(planes))
}

/// Writes the point's coordinates on the finest grid into `fine`:
/// `⌊v·scale⌋` per axis, with `scale` from [`fine_scale`], so `H − 1` bits
/// each. Level `h` takes the top `h` bits. Returns the first `d` entries,
/// or an error at the first coordinate outside `[0, 1)`.
fn fine_coords<'a>(point: &[f64], scale: f64, fine: &'a mut [u64; MAX_DIMS]) -> Result<&'a [u64]> {
    for ((j, &v), slot) in point.iter().enumerate().zip(fine.iter_mut()) {
        if !(0.0..1.0).contains(&v) {
            return Err(Error::InvalidParameter {
                name: "point",
                message: format!("value {v} at axis {j} outside [0,1); normalize the data first"),
            });
        }
        *slot = trunc_to_u64(v * scale);
    }
    Ok(fine.get(..point.len()).unwrap_or_default())
}

/// Key words of the widest tree: `d·(H−1)` bits for `d = MAX_DIMS` and
/// `H = MAX_RESOLUTIONS`.
const MAX_KEY_WORDS: usize = MAX_DIMS * (MAX_RESOLUTIONS - 1) / 64;

/// A point's place in the sort: the first word of its key and its index.
/// Packed to 12 bytes, so the sort moves 12 bytes per point and a one-word
/// key needs no other memory.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Entry {
    word: u64,
    point: u32,
}

/// Every point's level-major key, sorted. `entries` holds the first words,
/// in key order; `rest` the other `W − 1` words of each key, by point
/// index. The two take `η·(8·W + 4)` bytes.
pub(crate) struct SortedKeys {
    d: usize,
    words: usize,
    entries: Vec<Entry>,
    rest: Vec<u64>,
}

impl SortedKeys {
    /// Keys of every point, validated in dataset order, then sorted.
    pub(crate) fn new(ds: &Dataset, resolutions: usize) -> Result<SortedKeys> {
        let d = ds.dims();
        let planes = resolutions - 1;
        let words = (d * planes).div_ceil(64);
        let mut entries = Vec::with_capacity(ds.len());
        let mut rest = Vec::with_capacity(ds.len() * (words - 1));
        let scale = fine_scale(planes);
        let mut fine = [0u64; MAX_DIMS];
        let mut key = [0u64; MAX_KEY_WORDS];
        #[expect(
            clippy::indexing_slicing,
            reason = "d·(H−1) ≤ MAX_DIMS·(MAX_RESOLUTIONS−1)"
        )]
        let key = &mut key[..words];
        for (point, p) in (0..).zip(ds.iter()) {
            let fine = fine_coords(p, scale, &mut fine)?;
            // Planes of d ≤ 64 bits pass through the top of a 128-bit
            // window; each full word leaves it from the top.
            let (mut window, mut filled) = (0u128, 0);
            let mut out = key.iter_mut();
            for bit in (0..planes).rev() {
                let plane = (0..)
                    .zip(fine)
                    .fold(0, |acc, (j, &f)| acc | (((f >> bit) & 1) << j));
                window |= u128::from(plane) << (128 - filled - d);
                filled += d;
                if filled >= 64 {
                    if let Some(w) = out.next() {
                        *w = high_word(window);
                    }
                    window <<= 64;
                    filled -= 64;
                }
            }
            if let Some(w) = out.next().filter(|_| filled > 0) {
                *w = high_word(window);
            }
            if let Some((&word, tail)) = key.split_first() {
                entries.push(Entry { word, point });
                rest.extend_from_slice(tail);
            }
        }
        let tail = |point: u32| tail_of(&rest, words, point);
        entries.sort_unstable_by(|a, b| {
            let (wa, wb) = (a.word, b.word);
            wa.cmp(&wb).then_with(|| tail(a.point).cmp(tail(b.point)))
        });
        Ok(SortedKeys {
            d,
            words,
            entries,
            rest,
        })
    }

    /// Calls `visit(key, split)` for every point in key order, where
    /// `split` is the bit-plane of the first bit where `key` differs from
    /// the previous key: the shallowest level at which the point starts a
    /// new cell, counted from 0. The first point has split 0; a point whose
    /// key equals the previous one has split `usize::MAX`.
    pub(crate) fn walk(&self, mut visit: impl FnMut(&[u64], usize)) {
        let (mut a, mut b) = ([0u64; MAX_KEY_WORDS], [0u64; MAX_KEY_WORDS]);
        #[expect(
            clippy::indexing_slicing,
            reason = "d·(H−1) ≤ MAX_DIMS·(MAX_RESOLUTIONS−1)"
        )]
        let (mut prev, mut key) = (&mut a[..self.words], &mut b[..self.words]);
        for (i, entry) in self.entries.iter().enumerate() {
            let point = entry.point;
            if let Some((first, tail)) = key.split_first_mut() {
                *first = entry.word;
                for (w, &r) in tail.iter_mut().zip(tail_of(&self.rest, self.words, point)) {
                    *w = r;
                }
            }
            let split = if i == 0 {
                0
            } else {
                split_plane(prev, key, self.d)
            };
            visit(key, split);
            std::mem::swap(&mut prev, &mut key);
        }
    }
}

/// The words of `point`'s key after the first.
fn tail_of(rest: &[u64], words: usize, point: u32) -> &[u64] {
    let start = u32_to_usize(point) * (words - 1);
    rest.get(start..start + words - 1).unwrap_or_default()
}

/// The top 64 bits of `window`.
fn high_word(window: u128) -> u64 {
    u64::try_from(window >> 64).unwrap_or_default()
}

/// Bit-plane `plane` of a level-major key: `d` bits, axis `j` at bit `j`.
pub(crate) fn plane_bits(key: &[u64], plane: usize, d: usize) -> u64 {
    let t = plane * d;
    let (word, offset) = (t / 64, t % 64);
    let high = key.get(word).map_or(0, |&w| w << offset);
    let low = match offset {
        0 => 0,
        _ => key.get(word + 1).map_or(0, |&w| w >> (64 - offset)),
    };
    (high | low) >> (64 - d)
}

/// The bit-plane of the first bit where `key` differs from `prev`, or
/// `usize::MAX` when they are equal.
fn split_plane(prev: &[u64], key: &[u64], d: usize) -> usize {
    prev.iter()
        .zip(key)
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map_or(usize::MAX, |(w, (a, b))| {
            (64 * w + u32_to_usize((a ^ b).leading_zeros())) / d
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_level_major() {
        // H = 3: (0.75, 0.25) is (3, 1) = (0b11, 0b01) on the level-2 grid.
        // Planes, axis j at bit j: level 1 0b01, level 2 0b11; the key
        // reads 01 11 from its top bit.
        let ds = Dataset::from_rows(&[[0.75, 0.25], [0.0, 0.9]]).unwrap();
        let keys = SortedKeys::new(&ds, 3).unwrap();
        let mut seen = Vec::new();
        keys.walk(|key, split| seen.push((key.to_vec(), split)));
        // (0.0, 0.9) is (0, 3): planes 0b10, 0b10, so it sorts last and
        // starts a new level-1 cell.
        assert_eq!(seen, [(vec![0b01_11 << 60], 0), (vec![0b10_10 << 60], 0)]);
        assert_eq!(plane_bits(&[0b01_11 << 60], 1, 2), 0b11);
    }

    #[test]
    fn planes_cross_word_boundaries() {
        // d = 22, H = 4: three planes, and plane 2 spans bits 44..66, two
        // of them in word 1.
        let point: Vec<f64> = (0..22)
            .map(|j| if j % 3 == 0 { 0.9 } else { 0.1 })
            .collect();
        let ds = Dataset::from_rows(&[point]).unwrap();
        let keys = SortedKeys::new(&ds, 4).unwrap();
        keys.walk(|key, _| {
            assert_eq!(key.len(), 2);
            // 0.9 → 7 = 0b111 and 0.1 → 0 on the level-3 grid: every plane
            // holds the same bits.
            let want = (0..22)
                .filter(|j| j % 3 == 0)
                .fold(0, |acc, j| acc | 1 << j);
            for plane in 0..3 {
                assert_eq!(plane_bits(key, plane, 22), want, "plane {plane}");
            }
        });
    }

    #[test]
    fn points_in_one_deepest_cell_share_a_key() {
        // H = 3: 0.1 and 0.2 both fall in level-2 cell 0, in different
        // halves of it; the key holds no half-space bit to tell them apart.
        let ds = Dataset::from_rows(&[[0.1], [0.2]]).unwrap();
        let keys = SortedKeys::new(&ds, 3).unwrap();
        let mut splits = Vec::new();
        keys.walk(|key, split| splits.push((key.to_vec(), split)));
        assert_eq!(splits, [(vec![0], 0), (vec![0], usize::MAX)]);
    }

    #[test]
    fn split_is_the_first_differing_plane() {
        let d = 3;
        assert_eq!(split_plane(&[0b101 << 61], &[0b101 << 61], d), usize::MAX);
        assert_eq!(split_plane(&[0b101 << 61], &[0b100 << 61], d), 0);
        assert_eq!(split_plane(&[0, 0], &[0, 1], d), 127 / d);
    }

    #[test]
    fn the_first_bad_coordinate_is_reported() {
        let ds = Dataset::from_rows(&[[0.5, 0.5], [0.5, 1.5], [2.0, 0.5]]).unwrap();
        let err = SortedKeys::new(&ds, 4).err().unwrap();
        assert!(err.to_string().contains("value 1.5 at axis 1"), "{err}");
    }
}
