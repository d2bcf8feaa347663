//! Allocation profile, peak transient memory and exact memory accounting of
//! the Counting-tree build, and the allocation profile of the level pass.
//!
//! `mrcc_eval::TrackingAllocator` is the global allocator: it counts
//! allocations and tracks live and peak bytes. This binary holds a single
//! test, so no other test thread allocates while it measures.

use mrcc_common::Dataset;
use mrcc_counting_tree::{CountingTree, Level};
use mrcc_eval::TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

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
    let allocations = TrackingAllocator::allocations();
    let live = TrackingAllocator::live();
    TrackingAllocator::reset_peak();
    let tree = CountingTree::build(ds, resolutions).unwrap();
    Measured {
        tree,
        allocations: TrackingAllocator::allocations() - allocations,
        grown: TrackingAllocator::live() - live,
        peak: TrackingAllocator::peak() - live,
    }
}

/// The tree's exact heap: per level its `Level` struct and, per cell, the
/// `W_h = ⌈d / ⌊64/h⌋⌉` words of its packed key and its `u32` count,
/// `8·W_h + 4` bytes; plus the tree's own struct. No cell stores a parent
/// or half-space counts.
fn tree_bytes(tree: &CountingTree) -> usize {
    let level_bytes = |l: &Level| {
        let words = tree.dims().div_ceil(64 / l.h() as usize);
        size_of::<Level>() + l.n_cells() * (8 * words + size_of::<u32>())
    };
    size_of::<CountingTree>() + tree.levels().map(level_bytes).sum::<usize>()
}

/// Key words of a `d`-dimensional cell at level `h`, `⌈d / ⌊64/h⌋⌉`.
fn key_words(d: usize, h: usize) -> usize {
    d.div_ceil(64 / h)
}

/// The bound on a build's transient buffers: the sort of the points'
/// deepest-level keys, a 12-byte `(first word, index)` entry and the
/// `W' − 1` other words per point, `η·(8·W' + 4)` bytes for
/// `W' = ⌈d / ⌊64/(H−1)⌋⌉` key words.
fn transient_bound(ds: &Dataset, resolutions: usize) -> usize {
    ds.len() * (8 * key_words(ds.dims(), resolutions - 1) + 4)
}

/// The scratch of the coarser levels' sorts, once the points' keys are
/// freed. Level `h` is built from a sort of the `c_(h+1)` cells below it,
/// each keyed by its coordinates `>> 1` in level `h`'s `W_h` words, so it
/// holds `c_(h+1)·(8·W_h + 4)` bytes. With `c_(h+1) ≤ η` and `W_h ≤ W'`,
/// every one of them fits in [`transient_bound`].
fn sort_scratch(tree: &CountingTree) -> usize {
    let d = tree.dims();
    (1..tree.deepest_level())
        .map(|h| tree.level(h + 1).n_cells() * (8 * key_words(d, h) + 4))
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
    // keys and counts of every cell. Above the cell arrays the
    // build holds the points' sorted keys, then one coarser level's sort at
    // a time, never more than the points' sort; also with 4-word keys
    // (d = 4 axes of 63 bits each) and with crowded cells, where the
    // points' sort outweighs the level sorts.
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
        assert!(
            scratch <= bound,
            "{context}: sort scratch {scratch}, bound {bound}"
        );
        let over_cells = build.peak - build.grown;
        assert!(
            over_cells <= bound,
            "{context}: peak {over_cells} bytes above the cell arrays, bound {bound}"
        );
    }
    let (tree, big_tree) = (small_build.tree, large_build.tree);

    // The level pass allocates only the sums it returns, at any cell count.
    let pass_allocations = |t: &CountingTree| {
        let level = t.level(H - 1);
        let before = TrackingAllocator::allocations();
        let sums = level.face_neighbor_sums();
        let allocations = TrackingAllocator::allocations() - before;
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
