//! The build's one sort: packed keys of many items (points, or the cells
//! of the level below), sorted and grouped into runs of equal keys, one run
//! per cell of the level being built.
//!
//! The keys are the level's own [`KeyLayout`] words, compared word by word
//! from word 0: the packed-key order of the crate docs. So the runs come
//! out in the order the level stores its cells.

use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::num::{powi_exp, trunc_to_u64, u32_to_usize};
use mrcc_common::{Dataset, Error, Result};

use crate::cell::KeyLayout;

/// An item's place in the sort: the first word of its key and its index.
/// Packed to 12 bytes, so the sort moves 12 bytes per item and a one-word
/// key needs no other memory.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Entry {
    word: u64,
    item: u32,
}

/// Every item's key, sorted. `entries` holds the first words, in key order;
/// `tails` the other `W − 1` words of each key, by item index. The two take
/// `8·W + 4` bytes per item.
pub(crate) struct SortedKeys {
    words: usize,
    entries: Vec<Entry>,
    tails: Vec<u64>,
}

/// One run of equal keys: the key and the items that share it.
pub(crate) struct Run<'a> {
    word: u64,
    tail: &'a [u64],
    entries: &'a [Entry],
}

impl Run<'_> {
    /// The run's key, `W` words.
    pub(crate) fn key(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.word).chain(self.tail.iter().copied())
    }

    /// The items sharing the key.
    pub(crate) fn items(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.item)
    }

    /// How many items share the key.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

impl SortedKeys {
    /// The `words`-word keys of `items`, sorted: `key` writes each item's
    /// key, in item order, and its first error stops the sort.
    pub(crate) fn new<T>(
        items: impl ExactSizeIterator<Item = T>,
        words: usize,
        mut key: impl FnMut(T, &mut [u64]) -> Result<()>,
    ) -> Result<SortedKeys> {
        let mut entries = Vec::with_capacity(items.len());
        let mut tails = Vec::with_capacity(items.len() * (words - 1));
        let mut buf = [0u64; MAX_DIMS];
        #[expect(
            clippy::indexing_slicing,
            reason = "a key has at most one word per axis"
        )]
        let buf = &mut buf[..words];
        for (item, t) in (0..).zip(items) {
            key(t, buf)?;
            if let Some((&word, tail)) = buf.split_first() {
                entries.push(Entry { word, item });
                tails.extend_from_slice(tail);
            }
        }
        let tail = |item: u32| tail_of(&tails, words, item);
        entries.sort_unstable_by(|a, b| {
            let (wa, wb) = (a.word, b.word);
            wa.cmp(&wb).then_with(|| tail(a.item).cmp(tail(b.item)))
        });
        Ok(SortedKeys {
            words,
            entries,
            tails,
        })
    }

    /// The keys of level `h`'s cells that hold each point: `⌊v·2^h⌋` per
    /// axis, validated in dataset order, so the error names the first
    /// coordinate outside `[0, 1)`.
    pub(crate) fn of_points(ds: &Dataset, h: u32) -> Result<SortedKeys> {
        let layout = KeyLayout::new(h);
        let scale = (2.0f64).powi(powi_exp(u32_to_usize(h)));
        SortedKeys::new(ds.iter(), layout.words(ds.dims()), |point, key| {
            for (j, &v) in point.iter().enumerate() {
                if !(0.0..1.0).contains(&v) {
                    return Err(Error::InvalidParameter {
                        name: "point",
                        message: format!(
                            "value {v} at axis {j} outside [0,1); normalize the data first"
                        ),
                    });
                }
            }
            layout.pack(point.iter().map(|&v| trunc_to_u64(v * scale)), key);
            Ok(())
        })
    }

    /// The runs of equal keys, in key order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Run<'_>> + '_ {
        let tail = |item: u32| tail_of(&self.tails, self.words, item);
        // `iter().eq` and not `==` on the tails: a slice `==` costs a
        // call per pair even when the tails are empty.
        self.entries
            .chunk_by(move |a, b| {
                let (wa, wb) = (a.word, b.word);
                wa == wb && tail(a.item).iter().eq(tail(b.item))
            })
            .filter_map(move |entries| {
                let first = entries.first()?;
                Some(Run {
                    word: first.word,
                    tail: tail(first.item),
                    entries,
                })
            })
    }
}

/// The words of `item`'s key after the first.
fn tail_of(tails: &[u64], words: usize, item: u32) -> &[u64] {
    let start = u32_to_usize(item) * (words - 1);
    tails.get(start..start + words - 1).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each run's key and items, in run order.
    fn runs(sorted: &SortedKeys) -> Vec<(Vec<u64>, Vec<u32>)> {
        sorted
            .runs()
            .map(|run| (run.key().collect(), run.items().collect()))
            .collect()
    }

    #[test]
    fn multi_word_keys_that_tie_in_word_0_sort_and_group_by_the_tail() {
        let keys: [[u64; 3]; 6] = [
            [1, 5, 0],
            [1, 3, 9],
            [0, 9, 9],
            [1, 5, 0],
            [1, 5, 1],
            [1, 3, 9],
        ];
        let sorted = SortedKeys::new(keys.iter(), 3, |k, key| {
            key.copy_from_slice(k);
            Ok(())
        })
        .unwrap();
        let mut got = runs(&sorted);
        // Items within a run come in no promised order.
        for (_, items) in &mut got {
            items.sort_unstable();
        }
        assert_eq!(
            got,
            [
                (vec![0, 9, 9], vec![2]),
                (vec![1, 3, 9], vec![1, 5]),
                (vec![1, 5, 0], vec![0, 3]),
                (vec![1, 5, 1], vec![4]),
            ]
        );
        assert_eq!(sorted.runs().map(|run| run.len()).sum::<usize>(), 6);
    }

    #[test]
    fn one_word_keys_need_no_tails() {
        let sorted = SortedKeys::new([7u64, 2, 7].into_iter(), 1, |k, key| {
            key.copy_from_slice(&[k]);
            Ok(())
        })
        .unwrap();
        assert!(sorted.tails.is_empty());
        assert_eq!(runs(&sorted), [(vec![2], vec![1]), (vec![7], vec![0, 2])]);
    }

    #[test]
    fn points_in_one_cell_share_a_run() {
        // At level 2, 0.1 and 0.2 both fall in cell 0, in different halves
        // of it; 0.3 is in cell 1.
        let ds = Dataset::from_rows(&[[0.3], [0.1], [0.2]]).unwrap();
        let sorted = SortedKeys::of_points(&ds, 2).unwrap();
        let cells: Vec<(Vec<u64>, usize)> = sorted
            .runs()
            .map(|run| (run.key().collect(), run.len()))
            .collect();
        assert_eq!(cells, [(vec![0], 2), (vec![1], 1)]);
    }

    #[test]
    fn the_first_bad_coordinate_is_reported() {
        let ds = Dataset::from_rows(&[[0.5, 0.5], [0.5, 1.5], [2.0, 0.5]]).unwrap();
        let err = SortedKeys::of_points(&ds, 3).err().unwrap();
        assert!(err.to_string().contains("value 1.5 at axis 1"), "{err}");
    }
}
