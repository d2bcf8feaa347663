//! Allocation profile of the CSV reader: a fixed set of buffers that grow by
//! doubling, nothing per line.
//!
//! `mrcc_eval::TrackingAllocator` is the global allocator and counts the
//! allocations. This binary holds a single test, so no other test thread
//! allocates while it measures.

use std::fmt::Write as _;

use mrcc_common::csv;
use mrcc_eval::TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = TrackingAllocator::allocations();
    let out = f();
    (out, TrackingAllocator::allocations() - before)
}

#[test]
fn reading_allocates_nothing_per_line() {
    const ROWS: usize = 20_000;
    let mut text = String::from("# x, y, z, label\n");
    for i in 0..ROWS {
        let v = i as f64 / ROWS as f64;
        writeln!(text, "{v}, {}, {} ,{}", 1.0 - v, v * 0.5, i % 4).unwrap();
        if i % 100 == 0 {
            text.push_str("\r\n# a comment\n");
        }
    }

    let (labeled, labeled_allocs) =
        allocations(|| csv::read_labeled_dataset(text.as_bytes()).unwrap());
    assert_eq!((labeled.0.len(), labeled.1.len()), (ROWS, ROWS));
    // Read without labels, the label column is a fourth feature.
    let (unlabeled, unlabeled_allocs) = allocations(|| csv::read_dataset(text.as_bytes()).unwrap());
    assert_eq!((unlabeled.len(), unlabeled.dims()), (ROWS, 4));

    // The reader's buffer, the line buffer and the data and label vectors,
    // each doubling: O(log η), where one allocation per line would be 20 000.
    for n in [labeled_allocs, unlabeled_allocs] {
        assert!(n < 100, "{n} allocations for {ROWS} rows");
    }
}
