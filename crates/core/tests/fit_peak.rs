//! The heap peak of one `MrCC::fit`, pinned to a bound derived from the
//! arrays each phase holds.
//!
//! `mrcc_eval::TrackingAllocator` is the global allocator: it tracks live
//! and peak bytes, a `realloc` counting as the net change. This binary
//! holds a single test, so no other test thread allocates while it
//! measures.

use mrcc::{MrCC, MrCCConfig};
use mrcc_counting_tree::{CellId, CountingTree, Level};
use mrcc_datagen::{generate, SyntheticSpec};
use mrcc_eval::TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Room for the structures of size `O(β² + β·d + tests)` that no term below
/// names: the β-clusters the search keeps, its tested winners and one
/// winner's statistics; the merge's pair counts, union–find, groups and
/// cluster descriptions. About 10 KiB of it is used here.
const SMALL_STATE: usize = 64 << 10;

/// The smallest first band of a level's ranking (`search::MIN_BAND`).
const MIN_BAND: usize = 1024;

/// The bound on a fit's net heap peak, in bytes, from the cell counts
/// `c_h` of the tree it builds, where `c_0 = 0` and `W_h = ⌈d / ⌊64/h⌋⌉`:
///
/// * **tree** `T = Σ_h (size_of::<Level>() + c_h·(8·W_h + 8))`: per cell its
///   packed key, its `u32` count and its parent id, and no half-space
///   counts;
/// * **build** `T + η·(8·W' + 4)`: the points' sorted deepest-level keys,
///   `W' = ⌈d / ⌊64/(H−1)⌋⌉` words each, which outweigh each coarser
///   level's sort, `c_(h+1)·(8·W_h + 4)` (see the counting-tree crate's
///   allocation test);
/// * **search** `T + max(max_h B_(<h) + 8·c_h + B_h, C + N + V) +
///   SMALL_STATE`. Level `h ≥ 2` ranks its cells a band at a time: a first
///   band of `b_h = min(c_h, max(1024, c_h/8))` cells, 12 bytes each (`B_h
///   = 12·b_h`), and refills of at most `min(2·b_h, c_h − b_h)` cells, so
///   the bands never hold more than `N = Σ_h 12·max(b_h, min(2·b_h, c_h −
///   b_h))` bytes. Each level selects its first band while the first bands
///   of the levels above it, `B_(<h)`, are alive, its convolved values (8
///   bytes per cell) beside the band's heap. The child indexes `C =
///   Σ_(1≤h≤H−2) 4·(c_h + 1 + c_(h+1))` come after the first bands, so a
///   refill convolves its level again beside them and every level's band:
///   `V = max 8·c_h` over the levels with `b_h < c_h`, the ones that can
///   refill;
/// * **merge** (the tree is freed) `8·(η + 1) + 8·K + 8·L + η +
///   SMALL_STATE`: the containment offsets, the containment ids (`K` in all,
///   `u32`, at most twice that in capacity), the exactly sized member lists
///   of the `L` labeled points (`usize`) and the labeled-point flags.
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
    let build = tree + n * (8 * dims.div_ceil(64 / (resolutions - 1)) + 4);
    let (mut above, mut ranking, mut held, mut values) = (0, 0, 0, 0);
    for &c in &cells[1..] {
        let band = c.min(MIN_BAND.max(c / 8));
        ranking = ranking.max(above + 8 * c + 12 * band);
        above += 12 * band;
        held += 12 * band.max((2 * band).min(c - band));
        if band < c {
            values = values.max(8 * c);
        }
    }
    let child_indexes: usize = cells.windows(2).map(|c| 4 * (c[0] + 1 + c[1])).sum();
    let refill = child_indexes + held + values;
    let search = tree + ranking.max(refill) + SMALL_STATE;
    let merge = 8 * (n + 1) + 8 * contained + 8 * labeled + n + SMALL_STATE;
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

    let live = TrackingAllocator::live();
    TrackingAllocator::reset_peak();
    let fit = MrCC::new(config).fit(&ds).unwrap();
    let peak = TrackingAllocator::peak() - live;

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
