//! The heap peak of one `MrCC::fit`, pinned to a bound derived from the
//! arrays each phase holds.
//!
//! A test-local counting allocator wraps the system allocator and tracks
//! live and peak bytes; a `realloc` counts as the net change, as in
//! `mrcc_eval::TrackingAllocator`. This binary holds a single test, so no
//! other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mrcc::{MrCC, MrCCConfig};
use mrcc_counting_tree::{CellId, CountingTree, Level};
use mrcc_datagen::{generate, SyntheticSpec};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments; the
// counters are atomics that never allocate, so nothing recurses.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the contract is `System::alloc`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
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

    // SAFETY: the contract is `System::realloc`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller guarantees `new_size` is nonzero.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Room for the structures of size `O(β² + β·d + tests)` that no term below
/// names: the β-clusters the search keeps, its tested winners and one
/// winner's statistics; the merge's box copies and interval index, its
/// pair counts, union–find and groups. About 10 KiB of it is used here.
const SMALL_STATE: usize = 64 << 10;

/// The bound on a fit's net heap peak, in bytes, from the cell counts
/// `c_h` of the tree it builds, where `c_0 = 0` and `W_h = ⌈d / ⌊64/h⌋⌉`:
///
/// * **tree** `T = Σ_h (size_of::<Level>() + c_h·(8·W_h + 8))`: per cell its
///   packed key, its `u32` count and its parent id, and no half-space
///   counts;
/// * **build** `T + max(η·(8·W + 4) + 8·(H − 1), max_h 20·c_h + 4·c_(h−1))`:
///   the sorted keys, `W = ⌈d·(H−1)/64⌉` words each, and the run counts, or
///   later one level sort's scratch (see the counting-tree crate's
///   allocation test);
/// * **search** `T + max(max_h R_(<h) + 20·c_h, R + C) + SMALL_STATE`: the
///   rankings `R = Σ_(h≥2) 12·c_h`, one 12-byte entry per cell, and the
///   child indexes `C = Σ_(1≤h≤H−2) 4·(c_h + 1 + c_(h+1))`, built after
///   them. While level `h` is being ranked, the rankings of the levels
///   above it, `R_(<h)`, are alive, and its convolved values (8 bytes per
///   cell) sit beside either its face sums (8) or its entries (12);
/// * **merge** (the tree is freed) `8·(η + 1) + 8·K + 16·L + η +
///   SMALL_STATE`: the containment offsets, the containment ids (`K` in all,
///   `u32`, at most twice that in capacity), the member lists of the `L`
///   labeled points (`usize`, doubling) and the labeled-point flags.
///
/// The fit's peak is at most the largest of the three phases.
fn peak_bound(cells: &[usize], dims: usize, n: usize, contained: usize, labeled: usize) -> usize {
    let resolutions = cells.len() + 1;
    let tree: usize = (1..)
        .zip(cells)
        .map(|(h, &c)| {
            size_of::<Level>() + c * (8 * dims.div_ceil(64 / h) + 4 + size_of::<CellId>())
        })
        .sum();
    let keys = n * (8 * (dims * (resolutions - 1)).div_ceil(64) + 4) + 8 * (resolutions - 1);
    let with_root: Vec<usize> = std::iter::once(0).chain(cells.iter().copied()).collect();
    let sort_scratch = with_root
        .windows(2)
        .map(|c| 20 * c[1] + 4 * c[0])
        .max()
        .unwrap();
    let build = tree + keys.max(sort_scratch);
    let (mut above, mut ranking) = (0, 0);
    for &c in &cells[1..] {
        ranking = ranking.max(above + 20 * c);
        above += 12 * c;
    }
    let child_indexes: usize = cells.windows(2).map(|c| 4 * (c[0] + 1 + c[1])).sum();
    let search = tree + ranking.max(above + child_indexes) + SMALL_STATE;
    let merge = 8 * (n + 1) + 8 * contained + 16 * labeled + n + SMALL_STATE;
    build.max(search).max(merge)
}

#[test]
fn fit_peak_stays_within_the_derived_bound() {
    // 20 000 points in 14 dimensions, 6 clusters and 15 % noise: enough
    // cells that the tree and the search's arrays set the peak.
    let ds = generate(&SyntheticSpec::new("fit-peak", 14, 20_000, 6, 0.15, 7)).dataset;
    let config = MrCCConfig::default();
    let cells: Vec<usize> = CountingTree::build(&ds, config.resolutions)
        .unwrap()
        .levels()
        .map(Level::n_cells)
        .collect();

    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let fit = MrCC::new(config).fit(&ds).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - live;

    assert!(fit.n_clusters() >= 2, "{} clusters", fit.n_clusters());
    let contained = (0..ds.len())
        .map(|i| fit.merge_cache.containing(i).len())
        .sum();
    let labeled = fit.clusters.iter().map(|c| c.size).sum();
    let bound = peak_bound(&cells, ds.dims(), ds.len(), contained, labeled);
    assert!(
        peak <= bound,
        "fit peak {peak} bytes above the bound {bound}: cells {cells:?}, \
         {contained} containments, {labeled} labeled points"
    );
}
