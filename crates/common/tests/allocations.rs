//! Allocation profile of the CSV reader: a fixed set of buffers that grow by
//! doubling, nothing per line.
//!
//! A test-local counting allocator wraps the system allocator. This binary
//! holds a single test, so no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use mrcc_common::csv;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments; the
// counter is an atomic that never allocates, so nothing recurses.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the contract is `System::alloc`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the contract is `System::dealloc`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
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
