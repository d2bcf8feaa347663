//! Allocation profile, peak transient memory and exact memory accounting of
//! the Counting-tree build, and the allocation profile of the level pass.
//!
//! A test-local counting allocator wraps the system allocator. This binary
//! holds a single test, so no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mrcc_common::Dataset;
use mrcc_counting_tree::{CellId, CountingTree, Level};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

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
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
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

/// `n` points on the 2^4 corners of a coarse grid: every level has at most
/// 16 cells, so the level sorts are small and the keys set the peak.
fn crowded(n: usize) -> Dataset {
    let rows: Vec<[f64; 4]> = dataset(n)
        .iter()
        .map(|p| [0, 1, 2, 3].map(|j| if p[j] < 0.5 { 0.1 } else { 0.6 }))
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// What a build cost, measured across it with the tree still alive.
struct Measured {
    tree: CountingTree,
    allocations: usize,
    /// Live-byte growth: the tree's heap.
    grown: usize,
    /// Peak live-byte growth during the build.
    peak: usize,
}

fn measured_build(ds: &Dataset, resolutions: usize) -> Measured {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let tree = CountingTree::build(ds, resolutions).unwrap();
    Measured {
        tree,
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        grown: LIVE.load(Ordering::Relaxed) - live,
        peak: PEAK.load(Ordering::Relaxed) - live,
    }
}

/// The tree's exact heap: per level its `Level` struct and, per cell, the
/// `W_h = ⌈d / ⌊64/h⌋⌉` words of its packed key, its `u32` count and its
/// parent id, `8·W_h + 8` bytes; plus the tree's own struct. No cell
/// stores half-space counts.
fn tree_bytes(tree: &CountingTree) -> usize {
    let level_bytes = |l: &Level| {
        let words = tree.dims().div_ceil(64 / l.h() as usize);
        size_of::<Level>() + l.n_cells() * (8 * words + size_of::<u32>() + size_of::<CellId>())
    };
    size_of::<CountingTree>() + tree.levels().map(level_bytes).sum::<usize>()
}

/// The bound on a build's transient buffers: the sort's `η·(8·W + 4)`
/// bytes, `W = ⌈d·(H−1)/64⌉` key words, plus one run count per level.
fn transient_bound(ds: &Dataset, resolutions: usize) -> usize {
    let words = (ds.dims() * (resolutions - 1)).div_ceil(64);
    ds.len() * (8 * words + 4) + (resolutions - 1) * size_of::<usize>()
}

/// The bound on the level sorts' scratch, once the keys are freed. Sorting
/// level `h` holds a `(first key word, id)` pair per cell, 16 bytes, and
/// the old-to-new id it returns, 4 bytes; the parent level's returned ids
/// stay alive while the level renames its parents, 4 bytes per cell of
/// level `h − 1`. So the scratch peaks at `max_h 20·c_h + 4·c_(h−1)` bytes,
/// where `c_h` is the cell count of level `h` and `c_0 = 0`.
fn sort_scratch(tree: &CountingTree) -> usize {
    let cells: Vec<usize> = std::iter::once(0)
        .chain(tree.levels().map(Level::n_cells))
        .collect();
    let per_cell = size_of::<(u64, CellId)>() + size_of::<CellId>();
    cells
        .windows(2)
        .map(|c| per_cell * c[1] + size_of::<CellId>() * c[0])
        .max()
        .unwrap_or(0)
}

#[test]
fn build_allocations_and_memory_bytes() {
    const H: usize = 6;
    let levels = H - 1;
    let (small, large) = (dataset(4_000), dataset(16_000));

    let small_build = measured_build(&small, H);
    let large_build = measured_build(&large, H);
    let (small_allocs, large_allocs) = (small_build.allocations, large_build.allocations);

    // O(levels · log cells), not O(η): no allocation per point or per cell.
    assert!(
        small_allocs < small.len() / 10,
        "{small_allocs} allocations for {} points",
        small.len()
    );
    // Every level allocates its arrays once at their final size, so 4× the
    // points adds no allocation.
    assert!(
        large_allocs <= small_allocs + 24 * levels,
        "4× points: {small_allocs} → {large_allocs} allocations over {levels} levels"
    );

    // memory_bytes is exactly the live heap the build left behind, plus the
    // tree's own struct, which lives on the stack, and that is exactly the
    // keys, counts and parents of every cell. Above the cell arrays the
    // build holds the sort's keys and the run counts while it sweeps, then
    // one level sort's scratch at a time once the keys are freed; also with
    // 4-word keys (d·(H−1) = 4·63 bits) and with crowded cells, where the keys
    // outweigh the level sorts.
    let tall = dataset(2_000);
    let tall_build = measured_build(&tall, 64);
    let dense = crowded(16_000);
    let dense_build = measured_build(&dense, H);
    assert!(sort_scratch(&dense_build.tree) < transient_bound(&dense, H) / 10);
    for (ds, resolutions, build) in [
        (&small, H, &small_build),
        (&large, H, &large_build),
        (&tall, 64, &tall_build),
        (&dense, H, &dense_build),
    ] {
        let context = format!("{} points, H = {resolutions}", ds.len());
        assert_eq!(
            build.tree.memory_bytes(),
            build.grown + size_of::<CountingTree>(),
            "{context}"
        );
        assert_eq!(
            build.tree.memory_bytes(),
            tree_bytes(&build.tree),
            "{context}"
        );
        let (bound, scratch) = (transient_bound(ds, resolutions), sort_scratch(&build.tree));
        let over_cells = build.peak - build.grown;
        assert!(
            over_cells <= bound.max(scratch),
            "{context}: peak {over_cells} bytes above the cell arrays, bound {bound}, sort scratch {scratch}"
        );
    }
    let (tree, big_tree) = (small_build.tree, large_build.tree);

    // The level pass allocates only the sums it returns, at any cell count.
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
    assert_eq!(small_pass, 1, "allocations in one level pass");
    assert_eq!(
        large_pass, 1,
        "allocations in one level pass at 4× the cells"
    );
}
