//! The heap peak of each phase of `MrCC::fit`, and of the whole fit, pinned
//! to bounds derived from the arrays each phase holds.
//!
//! `mrcc_eval::TrackingAllocator` is the global allocator: it tracks live
//! and peak bytes, a `realloc` counting as the net change. This binary
//! holds a single test, so no other test thread allocates while it
//! measures.

use mrcc::merge::build_correlation_clusters;
use mrcc::search::find_beta_clusters;
use mrcc::{MrCC, MrCCConfig};
use mrcc_counting_tree::{CountingTree, Level};
use mrcc_datagen::{generate, SyntheticSpec};
use mrcc_eval::TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Room for the structures of size `O(β² + β·d + tests)` that no term below
/// names: the β-clusters the search keeps, its tested winners and one
/// winner's statistics; the merge's pair counts, union–find, groups and
/// cluster descriptions. Here the search peaks before its first test, with
/// under 1 KiB of it alive.
const SMALL_STATE: usize = 16 << 10;

/// The smallest first band of a level's ranking (`search::MIN_BAND`).
const MIN_BAND: usize = 1024;

/// Key words of a `d`-dimensional cell at level `h`, `W_h = ⌈d / ⌊64/h⌋⌉`.
fn key_words(d: usize, h: usize) -> usize {
    d.div_ceil(64 / h)
}

/// The per-phase bounds, in bytes, from the cell counts `c_h` of the tree
/// a fit builds over `n` points in `dims` dimensions. Every bound counts
/// from the live heap before the build; `T_(>h) = Σ_(k>h) c_k·(8·W_k + 4)`
/// is the cell arrays of the levels below `h`, and the tree
/// `T = T_(>0) + (H − 1)·size_of::<Level>()`: per cell its packed key and
/// its `u32` count, with no parent id and no half-space counts.
struct Bounds {
    /// The build, deepest level first: `(H − 1)·size_of::<Level>()` for
    /// the level vector plus the most of, over the levels `h`, the arrays
    /// of the levels already built, `T_(>h)`, the sort level `h` is made
    /// from and level `h`'s own arrays, `c_h·(8·W_h + 4)`. The deepest
    /// level, `H − 1`, sorts the points' keys, `η·(8·W_(H−1) + 4)` bytes
    /// (a 12-byte entry and `W − 1` more words each; the counting-tree
    /// crate's allocation test pins that); each coarser level sorts the
    /// cells below it, keyed in its own words, `c_(h+1)·(8·W_h + 4)`.
    build: usize,
    /// The β-search, over the whole tree:
    /// `T + max(max_h B_(<h) + 8·c_h + B_h, N + V) + SMALL_STATE`. Level
    /// `h ≥ 2` ranks its cells a band at a time: a first band of `b_h =
    /// min(c_h, max(1024, c_h/8))` cells, 12 bytes each (`B_h = 12·b_h`),
    /// and refills of at most `min(2·b_h, c_h − b_h)` cells, so the bands
    /// never hold more than `N = Σ_h 12·max(b_h, min(2·b_h, c_h − b_h))`
    /// bytes. Each level selects its first band while the first bands of
    /// the levels above it, `B_(<h)`, are alive, its convolved values (8
    /// bytes per cell) beside the band's heap. A refill convolves its
    /// level again beside every level's band: `V = max 8·c_h` over the
    /// levels with `b_h < c_h`, the ones that can refill. The binomial
    /// test reads a parent's half-space counts from a range of the tree's
    /// keys, and holds nothing per cell.
    search: usize,
    /// The merge, once the tree is freed: `8·(η + 1) + 8·K + 8·L + η +
    /// SMALL_STATE`, the containment offsets, the containment ids (`K` in
    /// all, `u32`, at most twice that in capacity), the exactly sized
    /// member lists of the `L` labeled points (`usize`) and the
    /// labeled-point flags.
    merge: usize,
}

impl Bounds {
    fn new(cells: &[usize], dims: usize, n: usize, contained: usize, labeled: usize) -> Self {
        let levels = cells.len();
        let bytes = |h: usize, c: usize| c * (8 * key_words(dims, h) + 4);
        let arrays: Vec<usize> = (1..).zip(cells).map(|(h, &c)| bytes(h, c)).collect();
        let below = |h: usize| arrays[h..].iter().sum::<usize>();
        let level_structs = levels * size_of::<Level>();
        let tree = level_structs + below(0);

        let build = (1..=levels)
            .map(|h| {
                let sorted = if h == levels { n } else { cells[h] };
                below(h) + bytes(h, sorted) + arrays[h - 1]
            })
            .max()
            .unwrap_or(0)
            + level_structs;

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
        let search = tree + ranking.max(held + values) + SMALL_STATE;

        let merge = 8 * (n + 1) + 8 * contained + 8 * labeled + n + SMALL_STATE;
        Bounds {
            build,
            search,
            merge,
        }
    }
}

/// Runs `phase` and returns its result and the heap peak it reached, net
/// of `base` live bytes.
fn peak_of<T>(base: usize, phase: impl FnOnce() -> T) -> (T, usize) {
    TrackingAllocator::reset_peak();
    let out = phase();
    (out, TrackingAllocator::peak() - base)
}

#[test]
fn each_phase_and_the_fit_stay_within_their_derived_bounds() {
    // 20 000 points in 14 dimensions, 6 clusters and 15 % noise: enough
    // cells that the tree and the search's arrays set the peak.
    let ds = generate(&SyntheticSpec::new("fit-peak", 14, 20_000, 6, 0.15, 7)).dataset;
    let config = MrCCConfig::default();

    // The three phases, one at a time, as `MrCC::fit` runs them.
    let base = TrackingAllocator::live();
    let (tree, build) = peak_of(base, || {
        CountingTree::build(&ds, config.resolutions).unwrap()
    });
    let cells: Vec<usize> = tree.levels().map(Level::n_cells).collect();
    let (betas, search) = peak_of(base, || find_beta_clusters(&tree, &config));
    drop(tree);
    let (_, merge) = peak_of(base, || build_correlation_clusters(&ds, &betas, 1));
    drop(betas);

    // The whole fit.
    let base = TrackingAllocator::live();
    let (fit, whole) = peak_of(base, || MrCC::new(config).fit(&ds).unwrap());

    assert!(fit.n_clusters() >= 2, "{} clusters", fit.n_clusters());
    let contained = (0..ds.len())
        .map(|i| fit.merge_cache.containing(i).len())
        .sum();
    let labeled = fit.clusters.iter().map(|c| c.size).sum();
    let bounds = Bounds::new(&cells, ds.dims(), ds.len(), contained, labeled);
    let context = format!("cells {cells:?}, {contained} containments, {labeled} labeled points");
    for (phase, peak, bound) in [
        ("build", build, bounds.build),
        ("search", search, bounds.search),
        ("merge", merge, bounds.merge),
    ] {
        assert!(
            peak <= bound,
            "{phase} peak {peak} bytes above its bound {bound}: {context}"
        );
    }
    let bound = bounds.build.max(bounds.search).max(bounds.merge);
    assert!(
        whole <= bound,
        "fit peak {whole} bytes above the bound {bound}: {context}"
    );
}
