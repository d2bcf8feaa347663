//! Deterministic work partitioning for the parallel execution mode.
//!
//! Every parallel phase in the workspace (sharded Counting-tree
//! construction, the merge phase's dataset pass) follows the same recipe:
//! split the work into **contiguous, index-ordered ranges**, process the
//! ranges on worker threads, and reduce the partial results **in range
//! order**. The helpers
//! here compute those ranges; keeping the partitioning in one place is what
//! makes "parallel output ≡ serial output" an auditable property instead of
//! a hope.

use std::ops::Range;

/// Splits `0..n_items` into `n_shards` contiguous ranges whose lengths
/// differ by at most one (the first `n_items % n_shards` ranges are one
/// longer). With `n_items < n_shards` the tail ranges are empty — callers
/// must tolerate empty shards.
///
/// `n_shards == 0` is treated as 1 so the result is never empty.
///
/// ```
/// use mrcc_common::parallel::shard_ranges;
/// assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(shard_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
/// ```
#[must_use]
pub fn shard_ranges(n_items: usize, n_shards: usize) -> Vec<Range<usize>> {
    let n_shards = n_shards.max(1);
    let base = n_items / n_shards;
    let extra = n_items % n_shards;
    let mut ranges = Vec::with_capacity(n_shards);
    let mut start = 0usize;
    for i in 0..n_shards {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Splits `0..n_items` into ranges of at most `chunk` items, in index order.
/// The final range may be shorter. `chunk == 0` is treated as 1.
///
/// ```
/// use mrcc_common::parallel::chunk_ranges;
/// assert_eq!(chunk_ranges(5, 2), vec![0..2, 2..4, 4..5]);
/// assert_eq!(chunk_ranges(0, 8), Vec::<std::ops::Range<usize>>::new());
/// ```
#[must_use]
pub fn chunk_ranges(n_items: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut ranges = Vec::with_capacity(n_items.div_ceil(chunk));
    let mut start = 0usize;
    while start < n_items {
        let end = (start + chunk).min(n_items);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Caps a requested worker count to something useful for `n_items` units of
/// work: at least 1, at most `n_items` (an idle worker is pure overhead) and
/// never more than the requested count.
#[must_use]
pub fn effective_workers(requested: usize, n_items: usize) -> usize {
    requested.max(1).min(n_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_everything_in_order() {
        for n in [0usize, 1, 2, 7, 100, 101] {
            for k in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(n, k);
                assert_eq!(ranges.len(), k);
                let mut expect = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect, "n={n} k={k}");
                    assert!(r.end >= r.start);
                    expect = r.end;
                }
                assert_eq!(expect, n);
                let (min, max) = ranges.iter().fold((usize::MAX, 0usize), |(mn, mx), r| {
                    (mn.min(r.len()), mx.max(r.len()))
                });
                assert!(max - min <= 1, "unbalanced shards for n={n} k={k}");
            }
        }
    }

    #[test]
    fn zero_shards_degrades_to_one() {
        assert_eq!(shard_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        for n in [0usize, 1, 5, 64, 65] {
            for c in [0usize, 1, 2, 64, 1000] {
                let ranges = chunk_ranges(n, c);
                let mut expect = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(r.len() <= c.max(1));
                    expect = r.end;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn effective_workers_bounds() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(4, 100), 4);
        assert_eq!(effective_workers(2, 0), 1);
    }
}
