//! Allocation profile and exact memory accounting of the Counting-tree build,
//! and the allocation profile of the level pass.
//!
//! A test-local counting allocator wraps the system allocator. This binary
//! holds a single test, so no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mrcc_common::Dataset;
use mrcc_counting_tree::CountingTree;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments; the
// counters are atomics that never allocate, so nothing recurses.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the contract is `System::alloc`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    // SAFETY: the contract is `System::dealloc`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `n` deterministic pseudo-random points in `[0, 1)^4`.
fn dataset(n: usize) -> Dataset {
    let mut state = 0x5EED_1234_ABCD_0001u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<[f64; 4]> = (0..n).map(|_| [next(), next(), next(), next()]).collect();
    Dataset::from_rows(&rows).unwrap()
}

/// Builds a tree and reports `(allocations, live-byte growth)` across the
/// build, with the tree still alive.
fn measured_build(ds: &Dataset, resolutions: usize) -> (CountingTree, usize, usize) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    let tree = CountingTree::build(ds, resolutions).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let grown = LIVE.load(Ordering::Relaxed) - live;
    (tree, allocations, grown)
}

#[test]
fn build_allocations_and_memory_bytes() {
    const H: usize = 6;
    let levels = H - 1;
    let (small, large) = (dataset(4_000), dataset(16_000));

    let (tree, small_allocs, small_grown) = measured_build(&small, H);
    let (big_tree, large_allocs, large_grown) = measured_build(&large, H);

    // O(levels · log cells), not O(η): no allocation per point or per cell.
    assert!(
        small_allocs < small.len() / 10,
        "{small_allocs} allocations for {} points",
        small.len()
    );
    // 4× the points is two more doublings of each of a level's arrays.
    assert!(
        large_allocs <= small_allocs + 24 * levels,
        "4× points: {small_allocs} → {large_allocs} allocations over {levels} levels"
    );

    // memory_bytes is exactly the live heap the build left behind, plus the
    // tree's own struct, which lives on the stack.
    for (t, grown) in [(&tree, small_grown), (&big_tree, large_grown)] {
        assert_eq!(t.memory_bytes(), grown + size_of::<CountingTree>());
    }

    // The level pass allocates a fixed set of buffers per call, not one per
    // cell: the same count at 4× the cells.
    let pass_allocations = |t: &CountingTree| {
        let level = t.level(H - 1);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sums = level.face_neighbor_sums();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(sums.len(), level.n_cells());
        allocations
    };
    let (small_pass, large_pass) = (pass_allocations(&tree), pass_allocations(&big_tree));
    assert!(
        big_tree.level(H - 1).n_cells() > 3 * tree.level(H - 1).n_cells(),
        "the larger tree has several times the cells"
    );
    assert_eq!(small_pass, large_pass);
    assert!(
        small_pass <= 5,
        "{small_pass} allocations in one level pass"
    );
}
