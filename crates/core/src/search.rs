//! Phase two: finding β-clusters (Algorithm 2).
//!
//! Starting at the coarsest useful resolution (level 2) and refining, the
//! search convolves the Laplacian mask over every not-yet-tested cell that
//! does not share space with a previously found β-cluster, takes the cell with the
//! largest convolved value — the densest region at this resolution outside
//! known clusters — and checks whether it *stands out in a statistical
//! sense*: per axis, the points of the centre cell's parent neighborhood are
//! split into six consecutive equal-size regions, and the centre region's
//! count `cP_j` is tested one-sided against `Binomial(nP_j, 1/6)`. A cell
//! significant on at least one axis seeds a new β-cluster; its relevant axes
//! come from an MDL cut over the per-axis relevances and its bounds from the
//! centre cell refined by its face neighbors.
//!
//! Algorithm 2 restarts from level 2 after every find and stops after a full
//! sweep finds nothing. Read literally, every sweep re-convolves every cell;
//! this implementation convolves each cell exactly once instead. A convolved
//! value depends only on cell counts, which the search never changes, and a
//! cell's eligibility (not yet tested, no strict overlap with a found β-box)
//! can only be lost, never regained. So each level is ranked once by the
//! total order *(convolved value descending, [`CellId`] ascending)* — a
//! full scan's "first maximum wins" over the cells in id order — and a
//! per-level cursor walks that ranking: a sweep's winner at a level is the
//! first eligible cell past the cursor, and every cell the cursor passes
//! stays ineligible for good. The ranking is a heap, so a cursor pays
//! `O(log cells)` per cell it passes and nothing for the cells it never
//! reaches, typically most of them. A `CellId` is the cell's rank in
//! packed grid position, so ties, too, are broken by where a cell is and
//! not by the order of the dataset's rows: a fit treats the dataset as the
//! set of points of the paper's Definition 1.
//!
//! The cursors therefore hold the paper's `usedCell` state: a tested winner
//! is never offered again because its cursor has stepped past it. The search
//! only reads the tree, so repeated searches on one tree return the same
//! β-clusters.
//!
//! The binomial test reads the half-space counts `P` of a winner's parent,
//! which the tree does not store. Beside its rankings the search builds one
//! [`ChildIndex`] per parent level, the paper's `ptr`, and sums `P[j]` over
//! the parent's children with an even coordinate `j` (see
//! `neighborhood_stats`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter;

use mrcc_common::num::grid_to_f64;
use mrcc_common::{AxisMask, BoundingBox};
use mrcc_counting_tree::{Cell, CellId, ChildIndex, CountingTree, Direction, Level};
use mrcc_stats::{binomial_critical_value, mdl_cut};

use crate::beta::{AxisStats, BetaCluster};
use crate::config::{AxisSelection, MrCCConfig};
use crate::convolution::convolve_level;

/// Number of consecutive equal-size regions the parent neighborhood is split
/// into along each axis (Section III-B): the parent's two halves plus the two
/// halves of each face neighbor.
pub const NEIGHBORHOOD_REGIONS: u64 = 6;

/// The uniform null hypothesis gives each of the six regions an equal share
/// of the neighborhood mass: `cP_j ~ Binomial(nP_j, 1/6)`.
pub const NULL_REGION_SHARE: f64 = 1.0 / 6.0;

/// Runs the full β-cluster search over a Counting-tree.
pub fn find_beta_clusters(tree: &CountingTree, config: &MrCCConfig) -> Vec<BetaCluster> {
    search(tree, config).0
}

/// The β-cluster search. Returns the β-clusters and every tested winner as
/// `(level, CellId)` in test order: the cells the paper marks `usedCell`.
fn search(tree: &CountingTree, config: &MrCCConfig) -> (Vec<BetaCluster>, Vec<(usize, CellId)>) {
    let dims = tree.dims();
    let h_max = tree.deepest_level();
    // One cursor per convolvable level 2..=H−1, over its ranked cell ids.
    let mut cursors: Vec<_> = (2..=h_max)
        .map(|h| ranked_cells(tree.level(h), dims))
        .collect();
    // The children of each level-(h − 1) cell, for the winners of level h.
    let child_indexes: Vec<_> = (1..h_max).map(|h| ChildIndex::new(tree, h)).collect();
    let mut betas: Vec<BetaCluster> = Vec::new();
    let mut tested = Vec::new();
    'search: loop {
        // One sweep from the coarsest convolvable level down.
        for ((h, cursor), children) in (2..=h_max).zip(cursors.iter_mut()).zip(&child_indexes) {
            let level = tree.level(h);
            let side = level.side();
            // `find` steps the cursor past every cell it rejects and past
            // the winner itself.
            let Some(winner) =
                cursor.find(|&id| !shares_space_with_any(level.cell(id), side, &betas))
            else {
                continue;
            };
            tested.push((h, winner));
            if let Some(beta) = confirm_beta_cluster(tree, children, h, winner, config) {
                betas.push(beta);
                continue 'search; // restart at level 2 (Algorithm 2, line 2)
            }
        }
        break; // full sweep, no new β-cluster (line 31)
    }
    (betas, tested)
}

/// A ranking entry: a cell's convolved value and its id. The max-heap pops
/// the largest value first and, among equal values, the smallest id.
/// Packed to 12 bytes, where the tuple `(i64, Reverse<CellId>)` pads to 16.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C, packed(4))]
struct Ranked(i64, Reverse<CellId>);

/// Every cell id of `level`, convolved once and yielded lazily in the
/// strict total order *(convolved value descending, id ascending)*: the
/// order in which the restart-scan of Algorithm 2 would pick them as
/// winners. Heapifying takes `O(cells)`, and each cell yielded
/// `O(log cells)`.
fn ranked_cells(level: &Level, dims: usize) -> impl Iterator<Item = CellId> {
    let mut heap: BinaryHeap<Ranked> = convolve_level(level, dims)
        .into_iter()
        .zip(0..)
        .map(|(value, id)| Ranked(value, Reverse(id)))
        .collect();
    iter::from_fn(move || heap.pop().map(|Ranked(_, Reverse(id))| id))
}

/// The cell-vs-β-cluster share-space predicate (strict interior overlap; a
/// cell that merely touches a β-box face is outside it and stays eligible —
/// grid-aligned bounds make touching ubiquitous, see
/// [`BoundingBox::overlaps_strict`]).
fn shares_space_with_any(cell: Cell<'_>, side: f64, betas: &[BetaCluster]) -> bool {
    betas.iter().any(|beta| {
        cell.coords().enumerate().all(|(j, c)| {
            grid_to_f64(c + 1) * side > beta.bounds.lower(j)
                && grid_to_f64(c) * side < beta.bounds.upper(j)
        })
    })
}

/// Statistics of the six-region neighborhood of `winner` along every axis.
/// `children` indexes the children of level `h − 1`: the parent's half-space
/// counts `P` come from it.
fn neighborhood_stats(
    tree: &CountingTree,
    children: &ChildIndex<'_>,
    h: usize,
    winner: CellId,
    alpha: f64,
) -> Vec<AxisStats> {
    let dims = tree.dims();
    let level = tree.level(h);
    let cell = level.cell(winner);
    let parent_level = tree.level(h - 1);
    let parent_id = level.parent(winner);
    let parent = parent_level.cell(parent_id);

    (0..dims)
        .map(|j| {
            // Predecessor + its two face neighbors along e_j (the paper's
            // internal and external neighbors N I / N E of a_{h−1}): three
            // consecutive level-(h−1) cells, i.e. six half-cell regions.
            let neighborhood = parent.n()
                + parent_level.neighbor_count(parent_id, j, Direction::Lower)
                + parent_level.neighbor_count(parent_id, j, Direction::Upper);
            // Centre region: the half of the parent that contains the winner.
            // Half-space count P[j] is the parent's lower half, so take it
            // directly when the winner's loc bit is 0, its complement when 1.
            let lower = children.half_count(parent_id, j);
            let center = if cell.loc_bit(j) {
                parent.n() - lower
            } else {
                lower
            };
            let critical = binomial_critical_value(neighborhood, NULL_REGION_SHARE, alpha);
            let relevance = if neighborhood > 0 {
                100.0 * center as f64 / neighborhood as f64
            } else {
                0.0
            };
            AxisStats {
                neighborhood,
                center,
                critical,
                relevance,
            }
        })
        .collect()
}

/// Applies the significance test at `winner`; on success builds the full
/// β-cluster description (relevant axes + refined bounds).
fn confirm_beta_cluster(
    tree: &CountingTree,
    children: &ChildIndex<'_>,
    h: usize,
    winner: CellId,
    config: &MrCCConfig,
) -> Option<BetaCluster> {
    let stats = neighborhood_stats(tree, children, h, winner, config.alpha);
    if !stats.iter().any(AxisStats::significant) {
        return None;
    }
    let dims = tree.dims();

    // Relevant-axis threshold: an absolute majority-share cut (default) or
    // the paper's MDL cut floored by the effect-size guard (see
    // AxisSelection).
    let cut = match config.axis_selection {
        AxisSelection::Mdl { floor } => {
            let mut ordered: Vec<f64> = stats.iter().map(|s| s.relevance).collect();
            // Relevances are finite and never −0.0, so this is their numeric
            // order.
            ordered.sort_by(f64::total_cmp);
            mdl_cut(&ordered).threshold.max(floor)
        }
        AxisSelection::Share(t) => t,
    };
    let axes = AxisMask::from_bools(&stats.iter().map(|s| s.relevance >= cut).collect::<Vec<_>>());
    if axes.is_empty() {
        // Statistically significant but with no usable effect on any axis —
        // a diffuse bump, not a cluster.
        return None;
    }

    // Bounds: irrelevant axes span [0,1]; relevant axes take the winner
    // cell's bounds, stretched by one cell side toward face neighbors that
    // hold a meaningful share of the cluster's mass (Algorithm 2, lines
    // 23–28, says "containing at least one point"; at realistic scales
    // background noise puts at least one point in *every* coarse neighbor,
    // which would balloon every box to three cells per axis — we require the
    // neighbor to carry at least a few percent of the centre cell's count,
    // which degenerates to the paper's ≥1 rule exactly when the centre is
    // small; see DESIGN.md).
    let level = tree.level(h);
    let cell = level.cell(winner);
    let side = level.side();
    let spill_threshold = (cell.n() / 20).max(1);
    let mut bounds = BoundingBox::unit(dims);
    for j in axes.iter() {
        let mut lo = cell.lower_bound(j, side);
        let mut hi = cell.upper_bound(j, side);
        if level.neighbor_count(winner, j, Direction::Lower) >= spill_threshold {
            lo = (lo - side).max(0.0);
        }
        if level.neighbor_count(winner, j, Direction::Upper) >= spill_threshold {
            hi = (hi + side).min(1.0);
        }
        bounds.set_lower(j, lo);
        bounds.set_upper(j, hi);
    }

    Some(BetaCluster {
        bounds,
        axes,
        level: h,
        center_coords: cell.coords().collect(),
        axis_stats: stats,
        relevance_threshold: cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::convolve;
    use mrcc_common::Dataset;
    use mrcc_datagen::{generate, SyntheticSpec};

    #[test]
    fn null_model_matches_the_paper() {
        // Sec. III-B: six equal regions per axis, `cP_j ~ Binomial(nP_j, 1/6)`.
        assert_eq!(NEIGHBORHOOD_REGIONS, 6);
        assert_eq!(NULL_REGION_SHARE.to_bits(), (1.0f64 / 6.0).to_bits());
    }

    /// ~1400 points: a tight 2-d Gaussian-ish blob plus a uniform grid of
    /// noise. The blob should produce exactly one β-cluster relevant on both
    /// axes.
    fn blob_and_noise() -> Dataset {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        // Deterministic pseudo-random blob centred at (0.3, 0.7), σ ≈ 0.02.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..1000 {
            // Irwin–Hall(4) − 2 ≈ Gaussian(0, 0.577).
            let g1: f64 = (0..4).map(|_| next()).sum::<f64>() - 2.0;
            let g2: f64 = (0..4).map(|_| next()).sum::<f64>() - 2.0;
            rows.push([
                (0.3 + 0.03 * g1).clamp(0.0, 0.999),
                (0.7 + 0.03 * g2).clamp(0.0, 0.999),
            ]);
        }
        for _ in 0..400 {
            rows.push([next() * 0.999, next() * 0.999]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn finds_the_blob_as_a_beta_cluster() {
        let ds = blob_and_noise();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&tree, &MrCCConfig::default());
        assert!(!betas.is_empty(), "no β-cluster found");
        // The first (densest) β-cluster covers the blob centre.
        let b = &betas[0];
        assert!(
            b.bounds.contains(&[0.3, 0.7]),
            "bounds {:?} miss the blob centre",
            b.bounds
        );
        assert!(b.axes.contains(0) && b.axes.contains(1));
    }

    #[test]
    fn uniform_data_yields_no_beta_cluster() {
        // A uniform grid has no density bump that can reject the null at
        // α = 1e−10.
        let mut rows = Vec::new();
        for i in 0..32 {
            for j in 0..32 {
                rows.push([i as f64 / 32.0, j as f64 / 32.0]);
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&tree, &MrCCConfig::default());
        assert!(
            betas.is_empty(),
            "found {} spurious β-clusters",
            betas.len()
        );
    }

    #[test]
    fn search_is_deterministic() {
        let ds = blob_and_noise();
        let run = || {
            let tree = CountingTree::build(&ds, 4).unwrap();
            find_beta_clusters(&tree, &MrCCConfig::default())
                .iter()
                .map(|b| (b.level, b.center_coords.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The restart-scan the cursor search replaced, kept as the reference it
    /// must reproduce: every sweep convolves every eligible cell of a level
    /// and keeps the first maximum, scanning the cells in `CellId` order.
    /// Each level keeps its own `usedCell` set; returns the β-clusters and
    /// the tested winners in test order.
    fn reference_search(
        tree: &CountingTree,
        config: &MrCCConfig,
    ) -> (Vec<BetaCluster>, Vec<(usize, CellId)>) {
        let dims = tree.dims();
        let child_indexes: Vec<_> = (1..tree.deepest_level())
            .map(|h| ChildIndex::new(tree, h))
            .collect();
        let mut used: Vec<Vec<bool>> = tree.levels().map(|l| vec![false; l.n_cells()]).collect();
        let mut betas: Vec<BetaCluster> = Vec::new();
        let mut tested = Vec::new();
        'search: loop {
            for h in 2..=tree.deepest_level() {
                let level = tree.level(h);
                let side = level.side();
                let mut best: Option<(CellId, i64)> = None;
                for (id, cell) in level.iter() {
                    if used[h - 1][id as usize] || shares_space_with_any(cell, side, &betas) {
                        continue;
                    }
                    let value = convolve(level, id, dims, config.mask);
                    if best.is_none_or(|(_, top)| value > top) {
                        best = Some((id, value));
                    }
                }
                let Some((winner, _)) = best else {
                    continue;
                };
                used[h - 1][winner as usize] = true;
                tested.push((h, winner));
                if let Some(beta) =
                    confirm_beta_cluster(tree, &child_indexes[h - 2], h, winner, config)
                {
                    betas.push(beta);
                    continue 'search;
                }
            }
            break;
        }
        (betas, tested)
    }

    /// Everything each β-cluster reports, as its `Debug` text. An `f64`'s
    /// `Debug` text round-trips, so equal text means bit-identical values.
    fn fingerprints(betas: &[BetaCluster]) -> Vec<String> {
        betas.iter().map(|b| format!("{b:?}")).collect()
    }

    mod cursor_equals_restart_scan {
        use super::*;
        use proptest::prelude::*;

        /// Random blob-plus-noise workload, tree height and configuration.
        pub(super) fn case_strategy() -> impl Strategy<Value = (SyntheticSpec, MrCCConfig)> {
            (
                (2usize..=8, 200usize..=1_200, 1usize..=3, 1u64..=1_000),
                (3usize..=5, any::<bool>(), any::<bool>()),
            )
                .prop_map(|((dims, points, clusters, seed), (h, mdl, loose))| {
                    let axis_selection = if mdl {
                        AxisSelection::Mdl { floor: 45.0 }
                    } else {
                        AxisSelection::Share(45.0)
                    };
                    let alpha = if loose { 1e-2 } else { 1e-10 };
                    let spec = SyntheticSpec::new("search", dims, points, clusters, 0.15, seed);
                    let config =
                        MrCCConfig::with_params(alpha, h).with_axis_selection(axis_selection);
                    (spec, config)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The cursor search returns the reference's β-clusters bit for
            /// bit and tests the same winners in the same order.
            #[test]
            fn same_betas_and_tested_winners((spec, config) in case_strategy()) {
                let ds = generate(&spec).dataset;
                let tree = CountingTree::build(&ds, config.resolutions).unwrap();
                let (reference, reference_tested) = reference_search(&tree, &config);
                let (betas, tested) = search(&tree, &config);
                let context = format!("{spec:?} {config:?}");
                prop_assert_eq!(fingerprints(&betas), fingerprints(&reference), "{}", context);
                prop_assert_eq!(tested, reference_tested, "{}", context);
            }
        }
    }

    /// The lazy cursor yields every cell in exactly the order of a full
    /// sort by *(value descending, id ascending)*, the values from the
    /// per-cell convolution. A uniform grid makes whole rows of cells tie
    /// on their value, so the ids order them.
    #[test]
    fn lazy_ranking_equals_a_full_sort() {
        let mut rows = Vec::new();
        for i in 0..32 {
            for j in 0..32 {
                rows.push([(31 - i) as f64 / 32.0, j as f64 / 32.0]);
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let tree = CountingTree::build(&ds, 5).unwrap();
        let mask = MrCCConfig::default().mask;
        for h in 2..=tree.deepest_level() {
            let level = tree.level(h);
            let value = |id| convolve(level, id, 2, mask);
            let mut sorted: Vec<CellId> = level.iter().map(|(id, _)| id).collect();
            sorted.sort_by_key(|&id| (Reverse(value(id)), id));
            let ties = sorted
                .windows(2)
                .filter(|w| value(w[0]) == value(w[1]))
                .count();
            assert!(ties > level.n_cells() / 2, "level {h}: {ties} ties");
            assert_eq!(
                ranked_cells(level, 2).collect::<Vec<_>>(),
                sorted,
                "level {h}"
            );
        }
    }

    #[test]
    fn repeated_search_on_one_tree_returns_the_same_betas() {
        let ds = generate(&SyntheticSpec::new("golden-blobs", 5, 800, 2, 0.15, 5)).dataset;
        let config = MrCCConfig::default();
        let tree = CountingTree::build(&ds, config.resolutions).unwrap();
        let first = find_beta_clusters(&tree, &config);
        assert!(!first.is_empty());
        let second = find_beta_clusters(&tree, &config);
        assert_eq!(fingerprints(&second), fingerprints(&first));
    }

    #[test]
    fn beta_clusters_do_not_share_space_pairwise_centers() {
        // Found β-clusters carve space: no later centre cell may fall inside
        // an earlier β-cluster's box.
        let ds = blob_and_noise();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&tree, &MrCCConfig::default());
        for (i, b) in betas.iter().enumerate() {
            let side = (0.5f64).powi(b.level as i32);
            for earlier in &betas[..i] {
                let disjoint = (0..2).any(|j| {
                    let lo = b.center_coords[j] as f64 * side;
                    let hi = lo + side;
                    hi < earlier.bounds.lower(j) || lo > earlier.bounds.upper(j)
                });
                assert!(disjoint, "β-cluster {i} centre inside an earlier box");
            }
        }
    }

    #[test]
    fn loose_alpha_finds_more_clusters_than_tight_alpha() {
        let ds = blob_and_noise();
        let count = |alpha: f64| {
            let tree = CountingTree::build(&ds, 4).unwrap();
            find_beta_clusters(&tree, &MrCCConfig::with_params(alpha, 4)).len()
        };
        assert!(count(1e-2) >= count(1e-40));
    }
}
